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
	if m.Regions() != 8 {
		t.Errorf("default grid dim = %d", m.Regions())
	}
	if m.Factors() <= 0 || m.Factors() > 64 {
		t.Errorf("factor count %d implausible", m.Factors())
	}
}

func TestPCATruncationReducesFactors(t *testing.T) {
	cfg, _, pl := setup(t, 400)
	cfg.GridDim = 8
	full, err := New(Config{Lib: cfg.Lib, Proc: cfg.Proc, GridDim: 8, PCAFraction: 1}, pl.Grid)
	if err != nil {
		t.Fatal(err)
	}
	trunc, err := New(Config{Lib: cfg.Lib, Proc: cfg.Proc, GridDim: 8, PCAFraction: 0.95}, pl.Grid)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("factors: full %d, 95%% %d (of %d regions)", full.Factors(), trunc.Factors(), 64)
	if trunc.Factors() >= full.Factors() {
		t.Errorf("PCA truncation did not reduce dimensions: %d vs %d", trunc.Factors(), full.Factors())
	}
	// With a strong D2D floor, a handful of factors dominates.
	if trunc.Factors() > 32 {
		t.Errorf("95%% of spectrum needs %d factors — quantization suspect", trunc.Factors())
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
		m.Regions()*m.Regions(), std, truth.Std, math.Abs(stats.RelErr(std, truth.Std)))
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

func TestSampleDistributionMatchesMoments(t *testing.T) {
	cfg, nl, pl := setup(t, 225)
	cfg.GridDim = 10
	m, err := New(cfg, pl.Grid)
	if err != nil {
		t.Fatal(err)
	}
	mean, std, err := m.Moments(nl, pl, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := m.SampleDistribution(nl, pl, 0.5, 4000, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("moments: µ=%.4g σ=%.4g | sampled: µ=%.4g σ=%.4g (k=%d factors)",
		mean, std, dist.Mean, dist.Std, dist.Factors)
	se := std / math.Sqrt(float64(dist.Samples))
	if math.Abs(dist.Mean-mean) > 6*se {
		t.Errorf("sampled mean %.5g vs analytic %.5g", dist.Mean, mean)
	}
	if e := math.Abs(stats.RelErr(dist.Std, std)); e > 10 {
		t.Errorf("sampled σ %.5g vs analytic %.5g (%.1f%%)", dist.Std, std, e)
	}
	if !(dist.Q05 < dist.Mean && dist.Mean < dist.Q95) {
		t.Errorf("quantiles disordered")
	}
}

func TestSampleDistributionErrors(t *testing.T) {
	cfg, nl, pl := setup(t, 16)
	m, err := New(cfg, pl.Grid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SampleDistribution(nl, pl, 0.5, 2, 1); err == nil {
		t.Errorf("too-few samples accepted")
	}
	if _, err := m.SampleDistribution(nl, pl, 2, 100, 1); err == nil {
		t.Errorf("bad signal probability accepted")
	}
	if _, _, err := m.Moments(nl, pl, -1); err == nil {
		t.Errorf("Moments accepted bad probability")
	}
}
