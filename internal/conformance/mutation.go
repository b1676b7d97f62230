package conformance

import (
	"context"
	"fmt"
)

// Mutation perturbs one estimator moment before the checks run. It exists
// so the harness can prove its own sensitivity: a verification gate that
// passes everything verifies nothing.
type Mutation struct {
	// Target names the estimator to perturb: linear, truth, integral2d,
	// polar, naive, tiled, tile-count, tiled-mc, tail-is (the
	// importance-sampled tail estimator) or qmc-seq (the Sobol stream).
	Target string `json:"target"`
	// Moment selects mean or std for the moment targets; the tail-is target
	// uses "exceedance" (there is only one quantity to bias) and qmc-seq
	// names a degrade mode (qmcDegradeModes).
	Moment string `json:"moment"`
	// Factor multiplies the chosen moment (1.01 = a 1 % bias). For tail-is
	// it becomes the uniform IS weight mis-scaling applied through
	// chipmc.TailConfig.WeightScale.
	Factor float64 `json:"factor"`
}

// SelfCheckFactor is the perturbation the self-check injects: 1 %, the
// sensitivity floor ISSUE-level acceptance demands the harness detect.
const SelfCheckFactor = 1.01

// TailSelfCheckFactor is the weight mis-scaling the tail self-check injects
// into the importance sampler: 2×, not 1 %. The tail gates are statistical
// (z·SE comparisons at deep probabilities), so a 1 % bias sits below their
// noise floor for the same reason the chipmc moments are excluded from the
// 1 % matrix. A doubled weight is the smallest realistic bug shape — a
// dropped factor of two in the likelihood ratio — and must trip the
// exceedance gate by a wide margin.
const TailSelfCheckFactor = 2.0

// SelfCheckResult records one mutation run: how many checks tripped.
type SelfCheckResult struct {
	Target string `json:"target"`
	Moment string `json:"moment"`
	// Factor is the perturbation this run injected (SelfCheckFactor for the
	// moment matrix, TailSelfCheckFactor for the tail-is entry).
	Factor float64 `json:"factor"`
	// Failed counts the checks the mutated run failed; Caught is Failed > 0.
	Failed int  `json:"failed"`
	Caught bool `json:"caught"`
}

// mutationRow is one row of the self-check table: every (target, moment)
// pair it names is injected at factor into its own run of the registry
// selection sel, and that run must fail at least one check.
type mutationRow struct {
	targets, moments []string
	factor           float64
	sel              selection
}

var meanStd = []string{"mean", "std"}

// mutations is the self-check table. Each row runs only the stages that
// read its targets, over the smallest fixture subset that reaches them.
// The chip-level Monte Carlo of the fixtures stage is deliberately absent:
// its gates are standard-error-sized, and at CI trial counts a 1 % bias
// sits below the SE noise floor — a statistical gate cannot and should not
// resolve it.
var mutations = []mutationRow{
	{
		targets: []string{"linear", "truth", "integral2d", "polar", "naive"},
		moments: meanStd, factor: SelfCheckFactor,
		sel: selection{stages: []string{"fixtures"}, fixtures: mutationFixtures},
	},
	{
		// A 2× IS weight mis-scaling rides through
		// chipmc.TailConfig.WeightScale on the cheap single-gate analytic
		// stage and must trip its z·SE exceedance gate.
		targets: []string{"tail-is"}, moments: []string{"exceedance"}, factor: TailSelfCheckFactor,
		sel: selection{stages: []string{"tail-analytic"}},
	},
	{
		targets: []string{"qmc-seq"}, moments: qmcDegradeModes, factor: 1,
		sel: selection{stages: []string{"qmc"}},
	},
	{
		targets: []string{"tiled", "tile-count"}, moments: meanStd, factor: SelfCheckFactor,
		sel: selection{stages: []string{"tiled-fixtures"}, fixtures: mutationFixtures},
	},
	{
		targets: []string{"tiled-mc"}, moments: meanStd, factor: SelfCheckFactor,
		sel: selection{stages: []string{"tiled-mc"}},
	},
}

// SelfCheck runs the mutation table: one registry run per (target, moment)
// with that perturbation injected, reporting whether each run failed.
// Every entry must come back Caught; AllCaught folds that for callers.
func SelfCheck(ctx context.Context, cfg Config) ([]SelfCheckResult, error) {
	return selfCheck(ctx, cfg, mutations)
}

func selfCheck(ctx context.Context, cfg Config, rows []mutationRow) ([]SelfCheckResult, error) {
	var out []SelfCheckResult
	for _, row := range rows {
		for _, target := range row.targets {
			for _, moment := range row.moments {
				cfg.Mutation = &Mutation{Target: target, Moment: moment, Factor: row.factor}
				rep, err := run(ctx, cfg, row.sel)
				if err != nil {
					return out, fmt.Errorf("conformance: self-check %s/%s: %w", target, moment, err)
				}
				out = append(out, SelfCheckResult{
					Target: target, Moment: moment, Factor: row.factor,
					Failed: rep.Failed, Caught: rep.Failed > 0,
				})
			}
		}
	}
	return out, nil
}

// AllCaught reports whether every mutation run tripped at least one check.
func AllCaught(results []SelfCheckResult) bool {
	for _, r := range results {
		if !r.Caught {
			return false
		}
	}
	return len(results) > 0
}
