// Process extraction → estimation, end to end: simulate noisy spatial-
// correlation measurements from test structures (the input the paper
// assumes from its reference [5]), robustly fit a valid correlation model,
// assemble a process description from the fit, and feed it to the
// Random-Gate estimator. Shows how far estimation error moves when the
// correlation model comes from measurements instead of ground truth.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"leakest"
	"leakest/internal/cells"
	"leakest/internal/spatial"
	"leakest/internal/stats"
)

func main() {
	ctx := context.Background()
	// Ground-truth process the "fab" actually has.
	truth := leakest.DefaultProcess()
	truth.WIDCorr = leakest.ExpCorr{Lambda: 150} // µm
	fmt.Printf("true process: %s, D2D floor %.2f\n", truth.WIDCorr.Name(), truth.CorrFloor())

	// 1. Simulate test-structure measurements: sample correlations at a
	//    ladder of distances, 300 device pairs each (≈6 % noise).
	rng := stats.NewRNG(11, "extract-demo")
	var distances []float64
	for d := 0.0; d <= 1200; d += 60 {
		distances = append(distances, d)
	}
	samples := spatial.SimulateCorrMeasurement(rng, truth, distances, 300)
	fmt.Printf("measured %d correlation samples (300 pairs each)\n\n", len(samples))

	// 2. Robust extraction: fit valid correlation families, best by RMSE.
	fit, err := spatial.FitCorrFunc(samples)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("extracted model: family %s, RMSE %.4f, floor %.3f\n",
		fit.Family, fit.RMSE, fit.Floor)
	fmt.Println("\n  d (µm)   true ρ   measured   fitted")
	for i := 0; i < len(samples); i += 4 {
		s := samples[i]
		model := fit.Floor + (1-fit.Floor)*fit.Func.Rho(s.D)
		fmt.Printf("  %6.0f   %.4f   %.4f     %.4f\n", s.D, truth.TotalCorr(s.D), s.Rho, model)
	}

	// 3. Assemble a process from the fit and estimate a design with both
	//    the true and the extracted process.
	extracted, err := fit.BuildProcess(truth.LNominal, truth.TotalSigma(), truth.SigmaVt)
	if err != nil {
		log.Fatal(err)
	}
	lib, err := leakest.CharacterizeContext(ctx, cells.ISCASSubset(), leakest.CharConfig{
		Process: truth, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	hist, err := leakest.NewHistogram(map[string]float64{
		"INV_X1": 20, "NAND2_X1": 25, "NOR2_X1": 15, "AND2_X1": 10, "XOR2_X1": 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	design := leakest.Design{Hist: hist, N: 250000, W: 1000, H: 1000, SignalProb: 0.5}

	estimate := func(proc *leakest.Process) leakest.Result {
		est, err := leakest.NewEstimator(lib, proc)
		if err != nil {
			log.Fatal(err)
		}
		res, err := est.EstimateContext(ctx, design, leakest.Polar)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	withTruth := estimate(truth)
	withFit := estimate(extracted)
	fmt.Printf("\nestimation with true process:      mean %.4g A, σ %.4g A\n",
		withTruth.Mean, withTruth.Std)
	fmt.Printf("estimation with extracted process: mean %.4g A, σ %.4g A\n",
		withFit.Mean, withFit.Std)
	fmt.Printf("σ discrepancy from extraction noise: %.2f%%\n",
		100*math.Abs(withFit.Std-withTruth.Std)/withTruth.Std)
}
