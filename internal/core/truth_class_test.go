package core

import (
	"context"
	"math"
	"testing"

	"leakest/internal/netlist"
	"leakest/internal/placement"
	"leakest/internal/stats"
)

func classTestDesign(t *testing.T, n int, grid placement.Grid) (*Model, *netlist.Netlist, *placement.Placement) {
	t.Helper()
	lib := testLib(t)
	proc := testProcess()
	byName := map[string]int{}
	for _, cc := range lib.Cells {
		byName[cc.Name] = cc.NumInputs
	}
	hist := testHist(t)
	rng := stats.NewRNG(77, "truth-class")
	nl, err := netlist.RandomCircuit(rng, "tc", n, 16, hist,
		func(typ string) (int, error) { return byName[typ], nil })
	if err != nil {
		t.Fatal(err)
	}
	pl, err := placement.Random(rng, grid, n)
	if err != nil {
		t.Fatal(err)
	}
	spec := DesignSpec{Hist: hist, N: n, W: grid.W(), H: grid.H(), SignalProb: 0.5}
	m, err := NewModel(lib, proc, spec, Analytic)
	if err != nil {
		t.Fatal(err)
	}
	return m, nl, pl
}

// At the default power-of-two site pitch the class-table inner loop must be
// BITWISE identical to the historical per-pair loop: class distances equal
// pair distances exactly, so every spline evaluation and every accumulation
// term matches. This is the invariant that keeps the determinism contract
// and the frozen conformance goldens intact.
func TestClassTablesBitwiseIdenticalAtDefaultPitch(t *testing.T) {
	n := 300
	grid, err := placement.AutoGrid(n)
	if err != nil {
		t.Fatal(err)
	}
	m, nl, pl := classTestDesign(t, n, grid)
	tabbed, err := trueStats(context.Background(), m, nl, pl, true)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := trueStats(context.Background(), m, nl, pl, false)
	if err != nil {
		t.Fatal(err)
	}
	if tabbed.Mean != plain.Mean || tabbed.Std != plain.Std {
		t.Errorf("class tables changed the result: µ %v vs %v, σ %v vs %v",
			tabbed.Mean, plain.Mean, tabbed.Std, plain.Std)
	}
}

// On a non-power-of-two pitch the class distance may differ from the pair
// distance by one ULP; the results must still agree to deep relative
// precision.
func TestClassTablesMatchOnOddPitch(t *testing.T) {
	n := 200
	grid, err := placement.NewGrid(n, 1.7, 2.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, nl, pl := classTestDesign(t, n, grid)
	tabbed, err := trueStats(context.Background(), m, nl, pl, true)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := trueStats(context.Background(), m, nl, pl, false)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(tabbed.Std-plain.Std) / plain.Std; rel > 1e-12 {
		t.Errorf("σ differs by %g relative on odd pitch", rel)
	}
	if rel := math.Abs(tabbed.Mean-plain.Mean) / plain.Mean; rel > 1e-12 {
		t.Errorf("µ differs by %g relative on odd pitch", rel)
	}
}

// TrueStats must stay worker-invariant with the tabulated loop, whose rows
// are visited grouped by gate type rather than in index order.
func TestClassTablesWorkerInvariance(t *testing.T) {
	n := 256
	grid, err := placement.AutoGrid(n)
	if err != nil {
		t.Fatal(err)
	}
	m, nl, pl := classTestDesign(t, n, grid)
	m.Workers = 1
	serial, err := TrueStats(m, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{3, 8} {
		m.Workers = w
		par, err := TrueStats(m, nl, pl)
		if err != nil {
			t.Fatal(err)
		}
		if serial.Std != par.Std || serial.Mean != par.Mean {
			t.Errorf("workers=%d changed tabulated truth: σ %v vs %v", w, serial.Std, par.Std)
		}
	}
}

// Off the square (Rows ≠ Cols) the classed loop's dr·Cols+dc indexing and
// branch-free lags must still reproduce the per-pair loop bit for bit, with
// enough gate types that the type-grouped row order differs from the
// index order.
func TestClassTablesBitwiseIdenticalOnRectangularGrid(t *testing.T) {
	n := 290
	grid, err := placement.NewGrid(n, 2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if grid.Rows == grid.Cols {
		t.Fatalf("want a rectangular grid, got %d×%d", grid.Rows, grid.Cols)
	}
	m, nl, pl := classTestDesign(t, n, grid)
	if k := len(nl.SortedTypes()); k < 5 {
		t.Fatalf("want ≥ 5 gate types, got %d", k)
	}
	tabbed, err := trueStats(context.Background(), m, nl, pl, true)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := trueStats(context.Background(), m, nl, pl, false)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(tabbed.Std) != math.Float64bits(plain.Std) || tabbed.Mean != plain.Mean {
		t.Errorf("classed loop differs on %d×%d grid: µ %v vs %v, σ %v vs %v",
			grid.Rows, grid.Cols, tabbed.Mean, plain.Mean, tabbed.Std, plain.Std)
	}
}

func TestRowsByTypeIsStableCountingSort(t *testing.T) {
	gt := []int{2, 0, 1, 0, 2, 2, 1}
	want := []int{1, 3, 2, 6, 0, 4, 5}
	got := rowsByType(gt, 3)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rowsByType = %v, want %v", got, want)
		}
	}
}
