package core

import (
	"math"
	"testing"

	"leakest/internal/netlist"
	"leakest/internal/placement"
	"leakest/internal/stats"
)

func TestPropagatedTrueStatsUniformConsistency(t *testing.T) {
	// With every pin at the same probability p, PropagatedTrueStats must
	// reproduce TrueStats in the simplified-correlation mode exactly.
	lib := testLib(t)
	byName := map[string]int{}
	for _, cc := range lib.Cells {
		byName[cc.Name] = cc.NumInputs
	}
	arity := func(typ string) (int, error) { return byName[typ], nil }
	hist := testHist(t)
	rng := stats.NewRNG(5, "prop-consistency")
	n := 225
	nl, err := netlist.RandomCircuit(rng, "pc", n, 16, hist, arity)
	if err != nil {
		t.Fatal(err)
	}
	grid, _ := placement.AutoGrid(n)
	pl, err := placement.Random(rng, grid, n)
	if err != nil {
		t.Fatal(err)
	}
	spec := DesignSpec{Hist: hist, N: n, W: grid.W(), H: grid.H(), SignalProb: 0.5}
	m, err := NewModel(lib, testProcess(), spec, AnalyticSimplified)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := TrueStats(m, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	gatePins := make([][]float64, n)
	for g, gate := range nl.Gates {
		pins := make([]float64, byName[gate.Type])
		for i := range pins {
			pins[i] = 0.5
		}
		gatePins[g] = pins
	}
	prop, err := PropagatedTrueStats(m, nl, pl, gatePins)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(prop.Mean-exact.Mean)/exact.Mean > 1e-12 {
		t.Errorf("means differ: %g vs %g", prop.Mean, exact.Mean)
	}
	// Every pin at 0.5 makes the per-gate moments the per-type ones, so the
	// two paths sum the same pair covariances and differ only in rounding.
	if e := math.Abs(prop.Std/exact.Std - 1); e > 1e-12 {
		t.Errorf("σ differ: %.17g vs %.17g (%.3g relative)", prop.Std, exact.Std, e)
	}
}

// TestPropagatedTrueStatsErrors: missing pin probabilities and an unknown
// cell type fail. Empty netlists and invalid placements are refused at the
// door, ExtractSpec.
func TestPropagatedTrueStatsErrors(t *testing.T) {
	m := newTestModel(t, 64, AnalyticSimplified)
	grid, _ := placement.AutoGrid(4)
	pl, _ := placement.RowMajor(grid, 4)
	nl := &netlist.Netlist{Name: "x", NumPI: 1, Gates: []netlist.Gate{
		{Type: "INV_X1"}, {Type: "INV_X1"}, {Type: "INV_X1"}, {Type: "INV_X1"}}}
	if _, err := PropagatedTrueStats(m, nl, pl, nil); err == nil {
		t.Errorf("missing pin probabilities accepted")
	}
	bad := &netlist.Netlist{Name: "b", NumPI: 1, Gates: []netlist.Gate{
		{Type: "NOPE"}, {Type: "NOPE"}, {Type: "NOPE"}, {Type: "NOPE"}}}
	pins := [][]float64{{0.5}, {0.5}, {0.5}, {0.5}}
	if _, err := PropagatedTrueStats(m, bad, pl, pins); err == nil {
		t.Errorf("unknown type accepted")
	}
}
