// Quickstart: characterize the built-in cell library, describe a candidate
// design by its high-level characteristics (the paper's Fig. 1 inputs), and
// estimate its full-chip leakage statistics in constant time.
package main

import (
	"context"
	"fmt"
	"log"

	"leakest"
)

func main() {
	ctx := context.Background()
	// 1. Characterize the built-in 62-cell library under the default
	//    synthetic 90 nm process (cached after the first call, ~10 s).
	fmt.Println("characterizing the 62-cell library...")
	lib, err := leakest.DefaultLibrary()
	if err != nil {
		log.Fatal(err)
	}

	// 2. Bind the library to a process with a within-die correlation
	//    length appropriate for a multi-mm² die.
	proc := leakest.DefaultProcess()
	proc.WIDCorr = leakest.TruncatedExpCorr{Lambda: 500, R: 2000} // µm
	est, err := leakest.NewEstimator(lib, proc)
	if err != nil {
		log.Fatal(err)
	}
	est.ApplyVtMean = true // include the random-Vt mean correction

	// 3. Describe the candidate design: expected cell usage, gate count
	//    and floorplan dimensions — no netlist required (early mode).
	hist, err := leakest.NewHistogram(map[string]float64{
		"INV_X1": 18, "BUF_X2": 5, "NAND2_X1": 22, "NAND3_X1": 6,
		"NOR2_X1": 14, "AOI21_X1": 7, "OAI21_X1": 6, "XOR2_X1": 4,
		"MUX2_X1": 4, "DFF_X1": 12, "SRAM6T": 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	design := leakest.Design{
		Hist: hist,
		N:    1_000_000,     // one million placeable cells
		W:    2000, H: 2000, // 2×2 mm die, µm
	}

	// 4. Pick the conservative signal-probability setting (§2.1.4) and
	//    estimate. Auto selects the constant-time method at this size.
	design.SignalProb, err = est.MaxLeakageSignalProb(hist)
	if err != nil {
		log.Fatal(err)
	}
	res, err := est.EstimateContext(ctx, design, leakest.Auto)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ndesign: %d cells on a %.1f×%.1f mm die\n",
		design.N, design.W/1000, design.H/1000)
	fmt.Printf("signal probability (leakage-maximizing): %.3f\n", design.SignalProb)
	fmt.Printf("method: %s\n", res.Method)
	fmt.Printf("mean leakage: %.3g A\n", res.Mean)
	fmt.Printf("std deviation: %.3g A (%.1f%% of mean)\n", res.Std, 100*res.Std/res.Mean)
	fmt.Printf("mean + 3σ design corner: %.3g A\n", res.Mean+3*res.Std)

	// 5. Contrast with the naive no-correlation estimate — the reason
	//    within-die correlation must be modelled.
	naive, err := est.EstimateContext(ctx, design, leakest.Naive)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nignoring correlation would report σ = %.3g A — %.0fx too small\n",
		naive.Std, res.Std/naive.Std)
}
