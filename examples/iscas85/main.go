// Late-mode estimation on the ISCAS85 benchmark suite: extract the
// high-level characteristics from each placed netlist, estimate with the
// linear-time Random-Gate method, and compare against the O(n²) true
// leakage and a full-chip Monte Carlo — the flow behind the paper's
// Table 1.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

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
	// Correlation length matched to benchmark-scale dies (tens of µm).
	proc := leakest.DefaultProcess()
	proc.WIDCorr = leakest.TruncatedExpCorr{Lambda: 30, R: 120}
	est, err := leakest.NewEstimator(lib, proc)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-8s %6s %12s %12s %9s %9s\n",
		"circuit", "gates", "true σ (A)", "RG σ (A)", "σ err", "MC σ err")
	for _, name := range leakest.ISCASNames() {
		nl, pl, err := leakest.ISCASCircuit(lib, name, 1)
		if err != nil {
			log.Fatal(err)
		}
		truth, err := est.TrueLeakageContext(ctx, nl, pl, 0.5)
		if err != nil {
			log.Fatal(err)
		}
		res, err := est.EstimateNetlist(nl, pl, 0.5, leakest.Linear)
		if err != nil {
			log.Fatal(err)
		}
		// Independent Monte-Carlo check on the smaller circuits.
		mcNote := "-"
		if len(nl.Gates) <= 1200 {
			mc, err := est.MonteCarloContext(ctx, nl, pl, 0.5, 1200, 1)
			if err != nil {
				log.Fatal(err)
			}
			mcNote = fmt.Sprintf("%.2f%%", 100*math.Abs(mc.Std-truth.Std)/truth.Std)
		}
		fmt.Printf("%-8s %6d %12.4g %12.4g %8.2f%% %9s\n",
			name, len(nl.Gates), truth.Std, res.Std,
			100*math.Abs(res.Std-truth.Std)/truth.Std, mcNote)
	}
	fmt.Println("\nσ err: Random-Gate estimate vs O(n²) true leakage (paper Table 1: 0.23%–1.38%)")
	fmt.Println("MC σ err: chip-level Monte Carlo vs the same truth (sampling noise included)")
}
