// Leakage-yield analysis: turn the estimated full-chip (mean, σ) into a
// distributional picture — quantiles, power-budget exceedance, and a yield
// curve — and decompose *where* the variance comes from. The lognormal
// two-moment approximation is cross-checked against a direct full-chip
// Monte Carlo on a placed instance of the design.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"leakest"
	"leakest/internal/cells"
)

func main() {
	ctx := context.Background()
	lib, err := leakest.CharacterizeContext(ctx, cells.ISCASSubset(), leakest.CharConfig{
		Process: leakest.DefaultProcess(),
		Seed:    1,
	})
	if err != nil {
		log.Fatal(err)
	}
	proc := leakest.DefaultProcess()
	proc.WIDCorr = leakest.TruncatedExpCorr{Lambda: 25, R: 100}
	est, err := leakest.NewEstimator(lib, proc)
	if err != nil {
		log.Fatal(err)
	}

	hist, err := leakest.NewHistogram(map[string]float64{
		"INV_X1": 22, "NAND2_X1": 26, "NAND3_X1": 8, "NOR2_X1": 18,
		"AND2_X1": 12, "OR2_X1": 8, "XOR2_X1": 6,
	})
	if err != nil {
		log.Fatal(err)
	}
	design := leakest.Design{Hist: hist, N: 2500, W: 100, H: 100, SignalProb: 0.5}

	res, err := est.EstimateContext(ctx, design, leakest.Linear)
	if err != nil {
		log.Fatal(err)
	}
	dist, err := leakest.DistributionOf(res)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("design: %d gates, %.0f×%.0f µm\n", design.N, design.W, design.H)
	fmt.Printf("estimated leakage: mean %.4g A, σ %.4g A\n\n", res.Mean, res.Std)

	// Where does the variance come from?
	bd, err := est.Breakdown(design)
	if err != nil {
		log.Fatal(err)
	}
	i, fl, w := bd.Fractions()
	fmt.Printf("variance breakdown: independent %.1f%%, die-to-die %.1f%%, within-die corr %.1f%%\n\n",
		100*i, 100*fl, 100*w)

	// Distribution summary.
	fmt.Println("leakage distribution (lognormal matched to mean/σ):")
	for _, q := range []float64{0.05, 0.25, 0.5, 0.75, 0.95, 0.99} {
		fmt.Printf("  p%-4.0f %.4g A\n", q*100, dist.Quantile(q))
	}

	// Yield curve: fraction of dies within a leakage budget.
	fmt.Println("\nyield vs leakage budget:")
	for _, mult := range []float64{0.8, 1.0, 1.2, 1.5, 2.0} {
		budget := res.Mean * mult
		y := dist.CDF(budget)
		bars := strings.Repeat("#", int(50*y))
		fmt.Printf("  budget %.2f×mean: yield %6.2f%% %s\n", mult, 100*y, bars)
	}
	budget95, err := dist.YieldBudget(0.95)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbudget for 95%% yield: %.4g A (%.2f× the mean)\n", budget95, budget95/res.Mean)

	// Cross-check the lognormal picture against a placed-instance MC.
	nl, err := leakest.RandomCircuit(lib, 7, "yield-check", design.N, 16, hist)
	if err != nil {
		log.Fatal(err)
	}
	pl, err := leakest.AutoPlace(nl, 7)
	if err != nil {
		log.Fatal(err)
	}
	mc, err := est.MonteCarloContext(ctx, nl, pl, 0.5, 2000, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nMonte-Carlo check (one placed instance, %d trials):\n", mc.Samples)
	fmt.Printf("  MC [p5, p95] = [%.4g, %.4g] A\n", mc.Q05, mc.Q95)
	fmt.Printf("  lognormal    = [%.4g, %.4g] A\n", dist.Quantile(0.05), dist.Quantile(0.95))
}
