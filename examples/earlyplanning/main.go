// Early-mode design planning: compare candidate floorplans and cell-mix
// choices for leakage *before* a netlist exists — the paper's primary
// motivation for a constant-time early estimator. The scenario trades off
// die aspect ratio, area, and a low-leakage cell mix against a
// performance-oriented mix, and budgets the mean + 3σ corner.
package main

import (
	"context"
	"fmt"
	"log"

	"leakest"
	"leakest/internal/cells"
)

func main() {
	ctx := context.Background()
	// A reduced characterization keeps the example snappy; swap in
	// leakest.DefaultLibrary() for the full 62-cell library.
	lib, err := leakest.CharacterizeContext(ctx, cells.ISCASSubset(), leakest.CharConfig{
		Process: leakest.DefaultProcess(),
		Seed:    1,
	})
	if err != nil {
		log.Fatal(err)
	}
	proc := leakest.DefaultProcess()
	proc.WIDCorr = leakest.TruncatedExpCorr{Lambda: 400, R: 1600}
	est, err := leakest.NewEstimator(lib, proc)
	if err != nil {
		log.Fatal(err)
	}
	est.ApplyVtMean = true

	// Two candidate cell mixes from prior-design experience: a
	// performance mix rich in buffers, compound AND/OR and XOR cells
	// (more transistors per function), and a leakage-aware mix built from
	// single-stage NAND/NOR/INV cells that exploit the stack effect.
	perfMix, err := leakest.NewHistogram(map[string]float64{
		"INV_X1": 18, "BUF_X1": 8, "NAND2_X1": 22, "NOR2_X1": 12,
		"AND2_X1": 16, "OR2_X1": 12, "XOR2_X1": 12,
	})
	if err != nil {
		log.Fatal(err)
	}
	lpMix, err := leakest.NewHistogram(map[string]float64{
		"INV_X1": 30, "NAND2_X1": 28, "NAND3_X1": 14, "NOR2_X1": 22, "XOR2_X1": 6,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Three candidate floorplans for the same 360k-gate block.
	const n = 360_000
	floorplans := []struct {
		name string
		w, h float64 // µm
	}{
		{"square 1.2×1.2 mm", 1200, 1200},
		{"wide   2.0×0.72 mm", 2000, 720},
		{"dense  1.0×1.0 mm", 1000, 1000},
	}

	fmt.Printf("early-mode leakage budget for a %d-gate block\n\n", n)
	fmt.Printf("%-22s %-12s %12s %12s %14s\n", "floorplan", "mix", "mean (A)", "std (A)", "mean+3σ (A)")
	for _, mix := range []struct {
		name string
		h    *leakest.Histogram
	}{{"perf", perfMix}, {"low-leak", lpMix}} {
		p, err := est.MaxLeakageSignalProb(mix.h)
		if err != nil {
			log.Fatal(err)
		}
		for _, fp := range floorplans {
			design := leakest.Design{Hist: mix.h, N: n, W: fp.w, H: fp.h, SignalProb: p}
			res, err := est.EstimateContext(ctx, design, leakest.Auto)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-22s %-12s %12.4g %12.4g %14.4g\n",
				fp.name, mix.name, res.Mean, res.Std, res.Mean+3*res.Std)
		}
	}

	fmt.Println("\nobservations:")
	fmt.Println(" - the mean depends only on the mix (Eq. 13), not the floorplan;")
	fmt.Println(" - σ grows when the die shrinks relative to the correlation length")
	fmt.Println("   (more of the die is mutually correlated: variance → n² regime);")
	fmt.Println(" - the low-leakage mix buys margin at the 3σ corner, quantified")
	fmt.Println("   before a single gate is placed.")
}
