// Package conformance is the statistical verification harness that
// cross-validates every estimation path in the repository pairwise:
//
//   - exact paths (the O(n) linear method vs a brute-force Eq. 15 site sum,
//     the O(n²) truth vs an independent serial reference, the tiled
//     estimators vs the monolithic one) are held to ULP-class relative
//     bounds;
//   - approximate paths (the O(1) integrals vs the linear method, the
//     chip-level, tail, quasi- and tiled Monte Carlo vs their analytic or
//     referee values) are held to tolerances derived from standard errors,
//     trial counts, and the envelopes recorded in EXPERIMENTS.md — never
//     hand-tuned epsilons;
//   - golden JSON fixtures (testdata/golden.json, regenerated by
//     `go generate ./internal/conformance`) freeze the E1–E6 experiment
//     shapes with declared tolerances.
//
// The checks live in one ordered registry of stages (fixtures, golden,
// tail-analytic, tail-brute, qmc, tiled-fixtures, tiled-mc) over
// deterministic seeded fixtures covering the process corners and
// degenerate layouts (1×1 grid, extreme λ/R ratios, all-D2D and all-WID
// splits, single-cell histograms). One mutation table proves the gates
// have teeth: each row perturbs an estimator (1 % on a moment, or a
// degraded sampler) and runs only the stages that read it, and every such
// run must fail. Entry points: Run, SelfCheck, and the `leakest verify`
// CLI subcommand (`make conformance` in CI).
package conformance

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// DefaultSeed matches the shared-library characterization seed, so fixture
// circuits and MC trials are reproducible across packages.
const DefaultSeed = 20070604

// Config controls one harness run.
type Config struct {
	// Short trims fixture sizes and MC trial counts for CI.
	Short bool
	// Seed fixes every random stream (0 selects DefaultSeed).
	Seed int64
	// Workers sets the deterministic pool size for the estimators and the
	// MC sampler; the report must be identical at any setting.
	Workers int
	// Mutation, when non-nil, perturbs one estimator moment before the
	// checks run — the self-test hook proving the harness has teeth.
	Mutation *Mutation
}

// Check kinds, for report consumers.
const (
	// KindExact marks identities that hold to floating-point accumulation
	// order (ULP-class relative bounds).
	KindExact = "exact"
	// KindApprox marks approximation gates bounded by recorded envelopes
	// (EXPERIMENTS.md) with documented headroom.
	KindApprox = "approx"
	// KindStatistical marks Monte-Carlo comparisons bounded by z standard
	// errors at the configured trial count.
	KindStatistical = "statistical"
	// KindGolden marks frozen-value comparisons against testdata/golden.json.
	KindGolden = "golden"
	// KindBehavior marks structural expectations (typed refusals, notes).
	KindBehavior = "behavior"
)

// Check is one verified comparison.
type Check struct {
	Fixture string    `json:"fixture,omitempty"`
	Name    string    `json:"name"`
	Kind    string    `json:"kind"`
	Got     float64   `json:"got"`
	Want    float64   `json:"want"`
	Tol     Tolerance `json:"tol"`
	// Allowed is the absolute deviation the tolerance grants at Want.
	Allowed float64 `json:"allowed"`
	// Margin is |got−want| / allowed: < 1 passes, and small values mean
	// the check would also catch much smaller perturbations.
	Margin float64 `json:"margin"`
	Pass   bool    `json:"pass"`
	Detail string  `json:"detail,omitempty"`
}

// loc names a check as fixture/name.
func (c Check) loc() string {
	if c.Fixture == "" {
		return c.Name
	}
	return c.Fixture + "/" + c.Name
}

// Report is the outcome of a harness run.
type Report struct {
	Short     bool              `json:"short"`
	Seed      int64             `json:"seed"`
	Workers   int               `json:"workers"`
	Checks    []Check           `json:"checks"`
	Passed    int               `json:"passed"`
	Failed    int               `json:"failed"`
	SelfCheck []SelfCheckResult `json:"mutation_self_check,omitempty"`
}

// OK reports whether every check passed.
func (r *Report) OK() bool { return r.Failed == 0 }

// WorstMargin returns the check with the largest margin — the comparison
// closest to (or furthest past) its tolerance.
func (r *Report) WorstMargin() (Check, bool) {
	worst, ok := Check{}, false
	for _, c := range r.Checks {
		if !ok || c.Margin > worst.Margin {
			worst, ok = c, true
		}
	}
	return worst, ok
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Summarize renders a human-readable summary; verbose lists every check,
// otherwise only failures appear line by line.
func (r *Report) Summarize(w io.Writer, verbose bool) {
	for _, c := range r.Checks {
		if !verbose && c.Pass {
			continue
		}
		status := "ok  "
		if !c.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(w, "%s %-55s got %.6g want %.6g (±%.3g, margin %.3g)", status, c.loc(), c.Got, c.Want, c.Allowed, c.Margin)
		if c.Detail != "" {
			fmt.Fprintf(w, " — %s", c.Detail)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "conformance: %d checks, %d passed, %d failed", len(r.Checks), r.Passed, r.Failed)
	if worst, ok := r.WorstMargin(); ok {
		fmt.Fprintf(w, "; tightest margin %.3g (%s)", worst.Margin, worst.loc())
	}
	fmt.Fprintln(w)
}

func (r *Report) tally() {
	r.Passed, r.Failed = 0, 0
	for _, c := range r.Checks {
		if c.Pass {
			r.Passed++
		} else {
			r.Failed++
		}
	}
}

// margin computes |got−want|/allowed with the zero-allowance convention:
// an exact match passes even when the tolerance grants nothing.
func margin(got, want, allowed float64) float64 {
	diff := math.Abs(got - want)
	if diff == 0 {
		return 0
	}
	if allowed == 0 {
		return math.Inf(1)
	}
	return diff / allowed
}
