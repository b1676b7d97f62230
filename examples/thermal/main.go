// Leakage–temperature feedback: a classic consequence of the leakage
// statistics this library estimates. Die temperature raises leakage
// (roughly an order of magnitude per 100 K); leakage power raises die
// temperature through the package thermal resistance. The fixed point
//
//	T = T_amb + θ·(P_dyn + Vdd·I_leak(T))
//
// may fail to exist for leaky parts — thermal runaway. Because leakage is
// statistical, the SAME design converges for a typical die but can run
// away for a +3σ leakage corner die: exactly the tail the Random-Gate
// estimator quantifies.
package main

import (
	"context"
	"fmt"
	"log"

	"leakest"
	"leakest/internal/cells"
	"leakest/internal/quad"
)

const (
	vdd      = 1.0   // V
	tAmb     = 320.0 // K (47 °C ambient)
	pDyn     = 0.5   // W of dynamic power
	maxIters = 300
)

func main() {
	ctx := context.Background()
	proc := leakest.DefaultProcess()
	proc.WIDCorr = leakest.TruncatedExpCorr{Lambda: 500, R: 2000}
	hist, err := leakest.NewHistogram(map[string]float64{
		"INV_X1": 20, "NAND2_X1": 25, "NAND3_X1": 8, "NOR2_X1": 18,
		"AND2_X1": 12, "OR2_X1": 8, "XOR2_X1": 6, "BUF_X1": 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	design := leakest.Design{Hist: hist, N: 2_000_000, W: 2830, H: 2830, SignalProb: 0.5}

	// Characterize at a ladder of junction temperatures and spline the
	// full-chip mean and σ against T.
	temps := []float64{300, 320, 340, 360, 380, 400, 420}
	means := make([]float64, len(temps))
	stds := make([]float64, len(temps))
	fmt.Println("characterizing across temperature...")
	for i, tk := range temps {
		cellList, err := cells.AtTemperature(cells.ISCASSubset(), tk)
		if err != nil {
			log.Fatal(err)
		}
		lib, err := leakest.CharacterizeContext(ctx, cellList, leakest.CharConfig{
			Process: leakest.DefaultProcess(), Seed: 1, MCSamples: 2000,
		})
		if err != nil {
			log.Fatal(err)
		}
		est, err := leakest.NewEstimator(lib, proc)
		if err != nil {
			log.Fatal(err)
		}
		est.ApplyVtMean = true
		res, err := est.EstimateContext(ctx, design, leakest.Polar)
		if err != nil {
			log.Fatal(err)
		}
		means[i] = res.Mean
		stds[i] = res.Std
		fmt.Printf("  T=%.0f K: mean %.3g A, σ %.3g A\n", tk, res.Mean, res.Std)
	}
	meanOfT, err := quad.NewSpline(temps, means)
	if err != nil {
		log.Fatal(err)
	}
	stdOfT, err := quad.NewSpline(temps, stds)
	if err != nil {
		log.Fatal(err)
	}

	// Self-consistent junction temperature for a die at the given leakage
	// quantile (0 = typical die, 3 = +3σ corner die) under a package with
	// thermal resistance theta (K/W).
	solve := func(sigmas, theta float64) (tJ float64, converged bool) {
		tJ = tAmb
		for i := 0; i < maxIters; i++ {
			iLeak := meanOfT.Eval(tJ) + sigmas*stdOfT.Eval(tJ)
			next := tAmb + theta*(pDyn+vdd*iLeak)
			if next > 470 {
				return next, false // far beyond the model: runaway
			}
			if diff := next - tJ; diff < 0.01 && diff > -0.01 {
				return next, true
			}
			// Damped update for stability near the bifurcation.
			tJ += 0.6 * (next - tJ)
		}
		return tJ, false
	}

	// Package selection: the cheapest package (largest θJA) that keeps even
	// the +3σ leakage corner thermally stable.
	corners := []struct {
		label  string
		sigmas float64
	}{
		{"typ", 0}, {"+1σ", 1}, {"+2σ", 2}, {"+3σ", 3},
	}
	fmt.Printf("\nself-consistent junction temperature by package (amb %.0f K, Pdyn %.2f W):\n", tAmb, pDyn)
	fmt.Printf("  %-10s", "θJA (K/W)")
	for _, c := range corners {
		fmt.Printf("  %-12s", c.label+" die")
	}
	fmt.Println()
	bestTheta := 0.0
	for _, theta := range []float64{10, 15, 20, 25, 30, 40} {
		fmt.Printf("  %-10.0f", theta)
		allOK := true
		for _, c := range corners {
			tj, ok := solve(c.sigmas, theta)
			if ok {
				fmt.Printf("  %-12s", fmt.Sprintf("%.0f K", tj))
			} else {
				fmt.Printf("  %-12s", "RUNAWAY")
				allOK = false
			}
		}
		fmt.Println()
		if allOK && theta > bestTheta {
			bestTheta = theta
		}
	}
	if bestTheta > 0 {
		fmt.Printf("\ncheapest package keeping the +3σ corner stable: θJA = %.0f K/W\n", bestTheta)
	} else {
		fmt.Println("\nno surveyed package keeps the +3σ corner stable — the design must shed leakage")
	}
	fmt.Println("the statistical estimator turns 'will some dies run away?' into a quantile question")
}
