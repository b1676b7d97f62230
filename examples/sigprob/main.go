// Signal-probability analysis (the paper's §2.1.4 and Fig. 3): sweep the
// probability that any logic signal is 1 and observe that full-chip mean
// leakage is nearly flat — unlike single gates, whose leakage spreads up to
// ~10× across input states — then find the conservative maximizing setting.
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
	est, err := leakest.NewEstimator(lib, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Single-gate spread across input states (NAND3: stacked pull-down).
	cc, err := lib.Cell("NAND3_X1")
	if err != nil {
		log.Fatal(err)
	}
	minS, maxS := cc.States[0].MCMean, cc.States[0].MCMean
	for _, st := range cc.States {
		if st.MCMean < minS {
			minS = st.MCMean
		}
		if st.MCMean > maxS {
			maxS = st.MCMean
		}
	}
	fmt.Printf("NAND3_X1 state-to-state leakage spread: %.1fx\n\n", maxS/minS)

	hist, err := leakest.NewHistogram(map[string]float64{
		"INV_X1": 20, "NAND2_X1": 25, "NAND3_X1": 10, "NOR2_X1": 20,
		"AND2_X1": 15, "OR2_X1": 6, "XOR2_X1": 4,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Sweep p and plot the normalized full-chip mean as an ASCII bar chart.
	fmt.Println("full-chip mean leakage vs signal probability (normalized):")
	var vals []float64
	max := 0.0
	for p := 0.0; p <= 1.0001; p += 0.05 {
		m, _, err := est.DesignStatsAtSignalProb(hist, min1(p))
		if err != nil {
			log.Fatal(err)
		}
		vals = append(vals, m)
		if m > max {
			max = m
		}
	}
	minV := vals[0]
	for _, v := range vals {
		if v < minV {
			minV = v
		}
	}
	for i, v := range vals {
		p := float64(i) * 0.05
		bar := int(60 * v / max)
		fmt.Printf("p=%.2f %s %.4f\n", p, strings.Repeat("#", bar), v/max)
	}
	fmt.Printf("\nfull-chip spread over p: %.1f%% (vs ~%.0fx for a single gate)\n",
		100*(max-minV)/max, maxS/minS)

	pStar, err := est.MaxLeakageSignalProb(hist)
	if err != nil {
		log.Fatal(err)
	}
	mStar, sStar, err := est.DesignStatsAtSignalProb(hist, pStar)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nconservative setting p* = %.3f: per-gate mean %.4g A, per-gate σ %.4g A\n",
		pStar, mStar, sStar)
	fmt.Println("use p* in Design.SignalProb for a conservative full-chip estimate")
}

func min1(p float64) float64 {
	if p > 1 {
		return 1
	}
	return p
}
