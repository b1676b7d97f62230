package conformance

import (
	"context"
	"strings"
	"testing"
)

// tailAnalytic selects the stage the tail-is self-check rides on.
var tailAnalytic = selection{stages: []string{"tail-analytic"}}

// TestTailOnlyRun exercises the tail-analytic stage selection: only the
// analytic single-gate checks run, and on a healthy tree they all pass.
func TestTailOnlyRun(t *testing.T) {
	rep, err := run(context.Background(), Config{Short: true, Workers: 1}, tailAnalytic)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(rep.Checks) == 0 {
		t.Fatal("tail-analytic run produced no checks")
	}
	for _, c := range rep.Checks {
		if c.Fixture != "tail-analytic" {
			t.Errorf("tail-analytic run produced a %s/%s check; only tail-analytic belongs here", c.Fixture, c.Name)
		}
		if !c.Pass {
			t.Errorf("%s/%s failed on a healthy tree: got %g want %g (±%g) — %s",
				c.Fixture, c.Name, c.Got, c.Want, c.Allowed, c.Detail)
		}
	}
}

// TestTailMutationTripsGate proves the tail gate has teeth on its own: a 2×
// IS weight mis-scaling must fail the deep-tail exceedance check while
// leaving the plain-MC and quantile checks (which never see IS weights)
// untouched.
func TestTailMutationTripsGate(t *testing.T) {
	cfg := Config{Short: true, Workers: 1,
		Mutation: &Mutation{Target: "tail-is", Moment: "exceedance", Factor: TailSelfCheckFactor}}
	rep, err := run(context.Background(), cfg, tailAnalytic)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	tripped := false
	for _, c := range rep.Checks {
		isCheck := strings.Contains(c.Name, "is-exceedance")
		if isCheck && !c.Pass {
			tripped = true
			continue
		}
		if !isCheck && !c.Pass {
			t.Errorf("%s/%s failed but only the IS weights were mutated", c.Fixture, c.Name)
		}
	}
	if !tripped {
		t.Errorf("a %g× IS weight mis-scaling slipped through the tail gate", TailSelfCheckFactor)
	}
}

// TestTailGatesFull runs both tail gates at their full sizes — the
// 10⁶-trial brute-force referee at P ≈ 10⁻⁴ — pinning the acceptance
// criterion that the importance sampler matches the referee within z·SE
// while spending at most 1/20 of its trials at an equal-or-better standard
// error. Skipped under -short; the short harness covers the same gates at
// trimmed sizes.
func TestTailGatesFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size tail gates run a 10⁶-trial referee")
	}
	rep, err := run(context.Background(), Config{Workers: 1},
		selection{stages: []string{"tail-analytic", "tail-brute"}})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, c := range rep.Checks {
		if !c.Pass {
			t.Errorf("%s/%s failed at full size: got %g want %g (±%g) — %s",
				c.Fixture, c.Name, c.Got, c.Want, c.Allowed, c.Detail)
		}
	}
}

// TestTailMutationScope checks the tail mutation does not leak into
// unrelated targets: a moment-target mutation leaves the tail weight scale
// at its unbiased zero value.
func TestTailMutationScope(t *testing.T) {
	h := &harness{cfg: Config{Mutation: &Mutation{Target: "naive", Moment: "std", Factor: SelfCheckFactor}}}
	if s := h.tailWeightScale(); s != 0 {
		t.Errorf("moment mutation produced tail weight scale %g, want 0", s)
	}
	h = &harness{cfg: Config{Mutation: &Mutation{Target: "tail-is", Moment: "exceedance", Factor: 2}}}
	if s := h.tailWeightScale(); s != 2 {
		t.Errorf("tail mutation produced weight scale %g, want 2", s)
	}
	h = &harness{}
	if s := h.tailWeightScale(); s != 0 {
		t.Errorf("no mutation produced weight scale %g, want 0", s)
	}
}
