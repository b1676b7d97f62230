package core

import (
	"math"
	"strings"
	"testing"

	"leakest/internal/netlist"
	"leakest/internal/placement"
	"leakest/internal/stats"
)

// buildPlaced returns a random circuit and placement for fast-truth tests.
func buildPlaced(t *testing.T, n int, seed int64) (*Model, *netlist.Netlist, *placement.Placement) {
	t.Helper()
	lib := testLib(t)
	byName := map[string]int{}
	for _, cc := range lib.Cells {
		byName[cc.Name] = cc.NumInputs
	}
	arity := func(typ string) (int, error) { return byName[typ], nil }
	hist := testHist(t)
	rng := stats.NewRNG(seed, "fasttruth")
	nl, err := netlist.RandomCircuit(rng, "ft", n, 16, hist, arity)
	if err != nil {
		t.Fatal(err)
	}
	grid, _ := placement.AutoGrid(n)
	pl, err := placement.Random(rng, grid, n)
	if err != nil {
		t.Fatal(err)
	}
	spec := DesignSpec{Hist: hist, N: n, W: grid.W(), H: grid.H(), SignalProb: 0.5}
	m, err := NewModel(lib, testProcess(), spec, Analytic)
	if err != nil {
		t.Fatal(err)
	}
	return m, nl, pl
}

func TestFastTruthMatchesExact(t *testing.T) {
	m, nl, pl := buildPlaced(t, 900, 4)
	exact, err := TrueStats(m, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	for _, tile := range []float64{0.0, 8, 16} { // 0 = auto
		fast, err := FastTrueStats(m, nl, pl, tile)
		if err != nil {
			t.Fatalf("tile %g: %v", tile, err)
		}
		if fast.Mean != exact.Mean {
			t.Errorf("tile %g: mean %g != exact %g (mean is exact by construction)",
				tile, fast.Mean, exact.Mean)
		}
		relErr := math.Abs(stats.RelErr(fast.Std, exact.Std))
		t.Logf("tile %g: σ err %.4f%% (%s)", tile, relErr, fast.Note)
		if relErr > 1 {
			t.Errorf("tile %g: σ error %.3f%% exceeds 1%%", tile, relErr)
		}
		if !strings.Contains(fast.Note, "tiles") {
			t.Errorf("missing tile note: %q", fast.Note)
		}
	}
}

func TestFastTruthAccuracyImprovesWithSmallerTiles(t *testing.T) {
	m, nl, pl := buildPlaced(t, 900, 9)
	exact, err := TrueStats(m, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	errAt := func(tile float64) float64 {
		fast, err := FastTrueStats(m, nl, pl, tile)
		if err != nil {
			t.Fatalf("tile %g: %v", tile, err)
		}
		return math.Abs(stats.RelErr(fast.Std, exact.Std))
	}
	coarse := errAt(30)
	fine := errAt(6)
	t.Logf("tile 30 µm: %.4f%%, tile 6 µm: %.4f%%", coarse, fine)
	if fine > coarse+1e-9 {
		t.Errorf("finer tiles should not be less accurate: %.4f%% vs %.4f%%", fine, coarse)
	}
}

func TestFastTruthSingleTileIsExact(t *testing.T) {
	// A tile covering the whole die reduces to the exact O(n²) sum.
	m, nl, pl := buildPlaced(t, 196, 2)
	exact, err := TrueStats(m, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := FastTrueStats(m, nl, pl, math.Hypot(pl.Grid.W(), pl.Grid.H())+1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fast.Std-exact.Std)/exact.Std > 1e-12 {
		t.Errorf("single-tile σ %g != exact %g", fast.Std, exact.Std)
	}
}

// TestFastTruthErrors: an unknown cell type fails. Empty netlists and
// placement mismatches are refused at the door, ExtractSpec.
func TestFastTruthErrors(t *testing.T) {
	m, _, pl := buildPlaced(t, 64, 1)
	bad := &netlist.Netlist{Name: "b", NumPI: 1}
	for i := 0; i < 64; i++ {
		bad.Gates = append(bad.Gates, netlist.Gate{Type: "NOPE"})
	}
	if _, err := FastTrueStats(m, bad, pl, 0); err == nil {
		t.Errorf("unknown type accepted")
	}
}

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
	// The pair-spline path introduces only spline interpolation error.
	if e := math.Abs(stats.RelErr(prop.Std, exact.Std)); e > 0.05 {
		t.Errorf("σ differ: %g vs %g (%.4f%%)", prop.Std, exact.Std, e)
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
