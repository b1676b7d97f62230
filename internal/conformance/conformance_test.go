package conformance

import (
	"context"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// groups partition the registry for the table-driven gate, worker and
// self-check tests: the estimator cross-checks with the goldens and tail
// gates, the quasi-Monte-Carlo stage, and the tiled pipeline.
var groups = []struct {
	name      string
	stages    []string
	minChecks int
}{
	{"base", []string{"fixtures", "golden", "tail-analytic", "tail-brute"}, 50},
	{"qmc", []string{"qmc"}, 12},
	{"tiled", []string{"tiled-fixtures", "tiled-mc"}, 20},
}

// TestRunShort is the conformance gate itself: on a healthy tree every
// short-mode check of every registry stage must pass.
func TestRunShort(t *testing.T) {
	for _, g := range groups {
		t.Run(g.name, func(t *testing.T) {
			rep, err := run(context.Background(), Config{Short: true, Workers: 2}, selection{stages: g.stages})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if len(rep.Checks) < g.minChecks {
				t.Fatalf("only %d checks ran; the %s stages should produce at least %d", len(rep.Checks), g.name, g.minChecks)
			}
			if !rep.OK() {
				var b strings.Builder
				rep.Summarize(&b, false)
				t.Fatalf("harness failed:\n%s", b.String())
			}
			if rep.Passed != len(rep.Checks) || rep.Failed != 0 {
				t.Fatalf("tally mismatch: %d checks, passed %d, failed %d", len(rep.Checks), rep.Passed, rep.Failed)
			}
		})
	}
}

// TestWorkerIndependence asserts the determinism contract end to end: the
// report — every got, want, and margin — is identical at any worker count.
func TestWorkerIndependence(t *testing.T) {
	for _, g := range groups {
		t.Run(g.name, func(t *testing.T) {
			sel := selection{stages: g.stages}
			r1, err := run(context.Background(), Config{Short: true, Workers: 1}, sel)
			if err != nil {
				t.Fatalf("workers=1: %v", err)
			}
			r4, err := run(context.Background(), Config{Short: true, Workers: 4}, sel)
			if err != nil {
				t.Fatalf("workers=4: %v", err)
			}
			r1.Workers, r4.Workers = 0, 0
			if !reflect.DeepEqual(r1, r4) {
				for i := range r1.Checks {
					if i < len(r4.Checks) && !reflect.DeepEqual(r1.Checks[i], r4.Checks[i]) {
						t.Errorf("check %d differs:\n  w1: %+v\n  w4: %+v", i, r1.Checks[i], r4.Checks[i])
					}
				}
				t.Fatal("reports differ across worker counts")
			}
		})
	}
}

// TestMutationSelfCheck proves the harness has teeth: every perturbation
// of the mutation table must trip at least one check of the stages it runs.
func TestMutationSelfCheck(t *testing.T) {
	for _, g := range groups {
		t.Run(g.name, func(t *testing.T) {
			var rows []mutationRow
			want := 0
			for _, row := range mutations {
				if slices.Contains(g.stages, row.sel.stages[0]) {
					rows = append(rows, row)
					want += len(row.targets) * len(row.moments)
				}
			}
			results, err := selfCheck(context.Background(), Config{Short: true, Workers: 2}, rows)
			if err != nil {
				t.Fatalf("selfCheck: %v", err)
			}
			if want == 0 || len(results) != want {
				t.Fatalf("got %d self-check results, want %d", len(results), want)
			}
			for _, r := range results {
				if !r.Caught {
					t.Errorf("a %g× %s/%s perturbation slipped through every check", r.Factor, r.Target, r.Moment)
				}
			}
			if !AllCaught(results) {
				t.Error("AllCaught disagrees with the per-result loop")
			}
		})
	}
	if AllCaught(nil) {
		t.Error("AllCaught must be false for an empty result set")
	}
}

// unmutatedStages are the registry stages no mutation row runs, and why.
var unmutatedStages = map[string]string{
	"golden":     "frozen-value comparisons with no estimator hook between the live and frozen values; the recorded-envelope bounds are their teeth",
	"tail-brute": "reads the same tail-is weight hook as tail-analytic, whose single-gate run proves it at a fraction of the 10⁶-trial referee's cost",
}

// TestRegistry pins the registry invariants: stage names are unique, the
// test groups cover each stage once, every mutation row names registered
// stages and fixtures, and every stage is run by some mutation row unless
// unmutatedStages says why not.
func TestRegistry(t *testing.T) {
	grouped := map[string]int{}
	for _, g := range groups {
		for _, name := range g.stages {
			grouped[name]++
		}
	}
	fixtures, err := Fixtures(true)
	if err != nil {
		t.Fatal(err)
	}
	mutated := map[string]bool{}
	for _, row := range mutations {
		for _, name := range row.sel.stages {
			mutated[name] = true
		}
		for _, name := range row.sel.fixtures {
			if !slices.ContainsFunc(fixtures, func(fx Fixture) bool { return fx.Name == name }) {
				t.Errorf("mutation row %v names unknown fixture %q", row.targets, name)
			}
		}
	}
	seen := map[string]bool{}
	for _, st := range stages {
		if seen[st.name] {
			t.Errorf("stage %q registered twice", st.name)
		}
		seen[st.name] = true
		if grouped[st.name] != 1 {
			t.Errorf("stage %q is in %d test groups, want 1", st.name, grouped[st.name])
		}
		if _, exempt := unmutatedStages[st.name]; mutated[st.name] == exempt {
			t.Errorf("stage %q: run by a mutation row = %v, listed in unmutatedStages = %v; want exactly one",
				st.name, mutated[st.name], exempt)
		}
	}
	for name := range mutated {
		if !seen[name] {
			t.Errorf("a mutation row names unregistered stage %q", name)
		}
	}
	for name := range unmutatedStages {
		if !seen[name] {
			t.Errorf("unmutatedStages names unregistered stage %q", name)
		}
	}
}

// TestMutationIsScoped checks the mutation hook perturbs only its target:
// an unrelated target leaves the linear checks untouched.
func TestMutationIsScoped(t *testing.T) {
	cfg := Config{Short: true, Workers: 1,
		Mutation: &Mutation{Target: "naive", Moment: "std", Factor: SelfCheckFactor}}
	rep, err := run(context.Background(), cfg, selection{stages: []string{"fixtures"}, fixtures: mutationFixtures})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, c := range rep.Checks {
		if !slices.Contains(mutationFixtures, c.Fixture) || strings.HasPrefix(c.Name, "chipmc/") {
			t.Errorf("%s/%s ran outside the selected fixtures' non-Monte-Carlo checks", c.Fixture, c.Name)
		}
		if strings.HasPrefix(c.Name, "naive/std") {
			if c.Pass {
				t.Errorf("%s/%s should have failed under the naive/std mutation", c.Fixture, c.Name)
			}
			continue
		}
		if !c.Pass {
			t.Errorf("%s/%s failed but only naive/std was mutated", c.Fixture, c.Name)
		}
	}
}

// TestFixtures sanity-checks the fixture set: valid processes, positive
// sizes, and the degenerate corners the issue demands are all present.
func TestFixtures(t *testing.T) {
	fixtures, err := Fixtures(true)
	if err != nil {
		t.Fatalf("Fixtures: %v", err)
	}
	want := map[string]bool{
		"baseline": false, "tight-corr": false, "one-gate": false,
		"single-cell": false, "all-d2d": false, "all-wid": false,
		"wide-corr": false, "skinny": false,
	}
	for _, fx := range fixtures {
		if _, ok := want[fx.Name]; !ok {
			t.Errorf("unexpected fixture %q", fx.Name)
		}
		want[fx.Name] = true
		if err := fx.Proc.Validate(); err != nil {
			t.Errorf("%s: invalid process: %v", fx.Name, err)
		}
		if fx.N() < 1 {
			t.Errorf("%s: empty grid", fx.Name)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("fixture %q missing", name)
		}
	}
	for _, name := range mutationFixtures {
		if !want[name] {
			t.Errorf("mutation fixture %q not in the fixture set", name)
		}
	}
}

// TestGoldenFrozen checks the embedded golden file parses, matches the
// generator's seed, and covers the E1–E6 shapes.
func TestGoldenFrozen(t *testing.T) {
	entries, err := FrozenGolden()
	if err != nil {
		t.Fatalf("FrozenGolden: %v", err)
	}
	seen := map[string]bool{}
	for _, e := range entries {
		seen[e.Name] = true
		if e.Tol.Allowed(e.Value) <= 0 && e.Value != 0 {
			t.Errorf("%s: frozen with a zero tolerance", e.Name)
		}
	}
	for _, name := range []string{
		"e1.mean_err_max", "e1.std_err_max", "e2.identity_dev", "e2.mc_mismatch",
		"e3.pstar", "e4.envelope_256", "e5.std_err_c432", "e6.simpl_err_256",
	} {
		if !seen[name] {
			t.Errorf("golden entry %q missing — run `go generate ./internal/conformance`", name)
		}
	}
}

// TestMargin pins the margin convention: exact match passes even with zero
// allowance; any deviation against zero allowance is infinite.
func TestMargin(t *testing.T) {
	if m := margin(1, 1, 0); m != 0 {
		t.Errorf("exact match with zero allowance: margin %g, want 0", m)
	}
	if m := margin(1, 2, 0); !math.IsInf(m, 1) {
		t.Errorf("deviation with zero allowance: margin %g, want +Inf", m)
	}
	if m := margin(1.5, 1, 1); m != 0.5 {
		t.Errorf("margin %g, want 0.5", m)
	}
}
