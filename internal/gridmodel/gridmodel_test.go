package gridmodel

import (
	"math"
	"testing"

	"leakest/internal/charlib"
	"leakest/internal/core"
	"leakest/internal/netlist"
	"leakest/internal/placement"
	"leakest/internal/spatial"
	"leakest/internal/stats"
)

func setup(t *testing.T, n int) (Config, *netlist.Netlist, *placement.Placement) {
	t.Helper()
	lib, err := charlib.SharedCore()
	if err != nil {
		t.Fatal(err)
	}
	base := spatial.Default90nm()
	proc := &spatial.Process{
		LNominal: base.LNominal,
		SigmaD2D: base.SigmaD2D,
		SigmaWID: base.SigmaWID,
		SigmaVt:  base.SigmaVt,
		WIDCorr:  spatial.TruncatedExpCorr{Lambda: 25, R: 100},
	}
	hist, _ := stats.NewHistogram(map[string]float64{
		"INV_X1": 2, "NAND2_X1": 2, "NOR2_X1": 1,
	})
	byName := map[string]int{}
	for _, cc := range lib.Cells {
		byName[cc.Name] = cc.NumInputs
	}
	rng := stats.NewRNG(31, "gridmodel-test")
	nl, err := netlist.RandomCircuit(rng, "gm", n, 8, hist,
		func(typ string) (int, error) { return byName[typ], nil })
	if err != nil {
		t.Fatal(err)
	}
	grid, _ := placement.AutoGrid(n)
	pl, err := placement.Random(rng, grid, n)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Lib: lib, Proc: proc}, nl, pl
}

func TestNewValidation(t *testing.T) {
	cfg, _, pl := setup(t, 16)
	if _, err := New(Config{}, pl.Grid); err == nil {
		t.Errorf("empty config accepted")
	}
	bad := cfg
	bad.GridDim = 100
	if _, err := New(bad, pl.Grid); err == nil {
		t.Errorf("oversized grid accepted")
	}
	wrongProc := *cfg.Proc
	wrongProc.SigmaWID *= 2
	bad = cfg
	bad.Proc = &wrongProc
	if _, err := New(bad, pl.Grid); err == nil {
		t.Errorf("inconsistent process accepted")
	}
	m, err := New(cfg, pl.Grid)
	if err != nil {
		t.Fatal(err)
	}
	if m.regions != 8 {
		t.Errorf("default grid dim = %d", m.regions)
	}
}

func TestMomentsErrors(t *testing.T) {
	cfg, nl, pl := setup(t, 16)
	m, err := New(cfg, pl.Grid)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{-1, 2} {
		if _, _, err := m.Moments(nl, pl, p); err == nil {
			t.Errorf("Moments accepted signal probability %g", p)
		}
	}
}

func TestMomentsMatchTrueStats(t *testing.T) {
	cfg, nl, pl := setup(t, 400)
	cfg.GridDim = 12
	m, err := New(cfg, pl.Grid)
	if err != nil {
		t.Fatal(err)
	}
	mean, std, err := m.Moments(nl, pl, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: the exact O(n²) with the same simplified mapping.
	spec, err := core.ExtractSpec(nl, pl, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.NewModel(cfg.Lib, cfg.Proc, spec, core.MCSimplified)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := core.TrueStats(model, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	// The grid model uses fit moments (mode-independent mean differences
	// are small); means must agree to within the moment-source difference.
	if e := math.Abs(stats.RelErr(mean, truth.Mean)); e > 2 {
		t.Errorf("grid mean %.4g vs true %.4g (%.2f%%)", mean, truth.Mean, e)
	}
	if e := math.Abs(stats.RelErr(std, truth.Std)); e > 6 {
		t.Errorf("grid σ %.4g vs true %.4g (%.2f%%)", std, truth.Std, e)
	}
	t.Logf("grid (%d regions): σ=%.4g, true σ=%.4g (%.2f%%)",
		m.regions*m.regions, std, truth.Std, math.Abs(stats.RelErr(std, truth.Std)))
}

func TestMomentsRefinesWithGrid(t *testing.T) {
	cfg, nl, pl := setup(t, 400)
	spec, _ := core.ExtractSpec(nl, pl, 0.5)
	model, err := core.NewModel(cfg.Lib, cfg.Proc, spec, core.AnalyticSimplified)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := core.TrueStats(model, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	errAt := func(dim int) float64 {
		c := cfg
		c.GridDim = dim
		m, err := New(c, pl.Grid)
		if err != nil {
			t.Fatal(err)
		}
		_, std, err := m.Moments(nl, pl, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(stats.RelErr(std, truth.Std))
	}
	coarse := errAt(2)
	fine := errAt(16)
	t.Logf("σ err: 2×2 grid %.3f%%, 16×16 grid %.3f%%", coarse, fine)
	if fine > coarse {
		t.Errorf("finer grid less accurate: %.3f%% vs %.3f%%", fine, coarse)
	}
	if fine > 3 {
		t.Errorf("16×16 grid error %.3f%% too large", fine)
	}
}
