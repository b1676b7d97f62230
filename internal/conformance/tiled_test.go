package conformance

import (
	"context"
	"strings"
	"testing"
)

// TestTiledMutationIsScoped: a base mutation target must not trip the
// tiled stages.
func TestTiledMutationIsScoped(t *testing.T) {
	cfg := Config{Short: true, Workers: 2,
		Mutation: &Mutation{Target: "linear", Moment: "std", Factor: SelfCheckFactor}}
	rep, err := run(context.Background(), cfg, selection{stages: []string{"tiled-fixtures"}, fixtures: mutationFixtures})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !rep.OK() {
		var b strings.Builder
		rep.Summarize(&b, false)
		t.Fatalf("a 'linear' mutation tripped the tiled suite (it mutates inputs the tiled gates re-derive):\n%s", b.String())
	}
}
