package chipmc

import (
	"errors"
	"math"
	"testing"

	"leakest/internal/charlib"
	"leakest/internal/core"
	"leakest/internal/lkerr"
	"leakest/internal/netlist"
	"leakest/internal/placement"
	"leakest/internal/spatial"
	"leakest/internal/stats"
	"strings"
)

func testSetup(t *testing.T, n int) (*charlib.Library, *spatial.Process, *netlist.Netlist, *placement.Placement) {
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
		WIDCorr:  spatial.TruncatedExpCorr{Lambda: 20, R: 80},
	}
	hist, _ := stats.NewHistogram(map[string]float64{
		"INV_X1": 2, "NAND2_X1": 2, "NOR2_X1": 1,
	})
	byName := map[string]int{}
	for _, cc := range lib.Cells {
		byName[cc.Name] = cc.NumInputs
	}
	rng := stats.NewRNG(13, "chipmc-test")
	nl, err := netlist.RandomCircuit(rng, "mc-test", n, 8, hist,
		func(typ string) (int, error) { return byName[typ], nil })
	if err != nil {
		t.Fatal(err)
	}
	grid, _ := placement.AutoGrid(n)
	pl, err := placement.Random(rng, grid, n)
	if err != nil {
		t.Fatal(err)
	}
	return lib, proc, nl, pl
}

// The decisive cross-validation: the chip-level MC distribution must match
// the O(n²) analytic true statistics within sampling error.
func TestMCMatchesAnalyticTruth(t *testing.T) {
	lib, proc, nl, pl := testSetup(t, 225)
	spec, err := core.ExtractSpec(nl, pl, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.NewModel(lib, proc, spec, MCMode())
	if err != nil {
		t.Fatal(err)
	}
	truth, err := core.TrueStats(model, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := Run(Config{Lib: lib, Proc: proc, SignalProb: 0.5, Samples: 3000, Seed: 5}, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("analytic: µ=%.4g σ=%.4g | MC: µ=%.4g σ=%.4g", truth.Mean, truth.Std, mc.Mean, mc.Std)
	// Mean: MC standard error ≈ σ/√N.
	se := truth.Std / math.Sqrt(float64(mc.Samples))
	if math.Abs(mc.Mean-truth.Mean) > 5*se {
		t.Errorf("MC mean %.5g vs analytic %.5g (> 5 SE = %.3g)", mc.Mean, truth.Mean, 5*se)
	}
	// Std: allow ~8% (sampling noise on σ of a skewed sum plus the
	// simplified ρ_leak=ρ_L mapping in the analytic pairwise covariances).
	if e := math.Abs(stats.RelErr(mc.Std, truth.Std)); e > 8 {
		t.Errorf("MC σ %.5g vs analytic %.5g (%.2f%%)", mc.Std, truth.Std, e)
	}
	if !(mc.Q05 < mc.Mean && mc.Mean < mc.Q95) {
		t.Errorf("quantiles disordered: %g %g %g", mc.Q05, mc.Mean, mc.Q95)
	}
}

// MCMode returns the core mode matching this package's curve-based
// sampling (MC moments + simplified correlation).
func MCMode() core.Mode { return core.MCSimplified }

func TestVtIncreasesMeanNotStd(t *testing.T) {
	lib, proc, nl, pl := testSetup(t, 144)
	base, err := Run(Config{Lib: lib, Proc: proc, SignalProb: 0.5, Samples: 2500, Seed: 9}, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	vt, err := Run(Config{Lib: lib, Proc: proc, SignalProb: 0.5, Samples: 2500, Seed: 9, IncludeVt: true}, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	// The mean should rise by roughly the lognormal factor.
	factor := lib.VtMeanFactor()
	gotFactor := vt.Mean / base.Mean
	t.Logf("Vt mean factor: measured %.3f, analytic %.3f", gotFactor, factor)
	if math.Abs(gotFactor-factor)/factor > 0.1 {
		t.Errorf("Vt mean factor %.3f, want ≈ %.3f", gotFactor, factor)
	}
	// The paper's claim: relative spread barely changes because the
	// independent Vt contributions average out over the chip.
	baseCV := base.Std / base.Mean
	vtCV := vt.Std / vt.Mean
	if math.Abs(vtCV-baseCV)/baseCV > 0.25 {
		t.Errorf("Vt changed the leakage CV too much: %.4f vs %.4f", vtCV, baseCV)
	}
}

func TestRunValidation(t *testing.T) {
	lib, proc, nl, pl := testSetup(t, 16)
	cases := []Config{
		{},
		{Lib: lib},
		{Lib: lib, Proc: proc, SignalProb: 2},
		{Lib: lib, Proc: proc, SignalProb: 0.5, Samples: 2},
	}
	for i, cfg := range cases {
		if _, err := Run(cfg, nl, pl); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	empty := &netlist.Netlist{Name: "e"}
	if _, err := Run(Config{Lib: lib, Proc: proc, SignalProb: 0.5}, empty, pl); err == nil {
		t.Errorf("empty netlist accepted")
	}
	// Placement mismatch.
	grid, _ := placement.AutoGrid(4)
	small, _ := placement.RowMajor(grid, 4)
	if _, err := Run(Config{Lib: lib, Proc: proc, SignalProb: 0.5}, nl, small); err == nil {
		t.Errorf("mismatched placement accepted")
	}
	// Inconsistent process.
	wrong := *proc
	wrong.SigmaWID *= 3
	if _, err := Run(Config{Lib: lib, Proc: &wrong, SignalProb: 0.5}, nl, pl); err == nil {
		t.Errorf("inconsistent process accepted")
	}
	// Invalid placements: a gate off the grid or two gates on one site must
	// be refused on every route before any field touches the sites.
	offGrid := &placement.Placement{Grid: pl.Grid, Site: append([]int(nil), pl.Site...)}
	offGrid.Site[3] = pl.Grid.Sites() + 7
	shared := &placement.Placement{Grid: pl.Grid, Site: append([]int(nil), pl.Site...)}
	shared.Site[1] = shared.Site[0]
	routes := []struct {
		name string
		cfg  Config
	}{
		{"dense", Config{Sampler: SamplerDense}},
		{"fft", Config{Sampler: SamplerFFT}},
		{"qmc", Config{Sampler: SamplerQMC}},
		{"tiled", Config{Tiles: 2}},
	}
	for _, r := range routes {
		cfg := r.cfg
		cfg.Lib, cfg.Proc, cfg.SignalProb, cfg.Samples = lib, proc, 0.5, 16
		for _, bad := range []*placement.Placement{offGrid, shared} {
			_, err := Run(cfg, nl, bad)
			if !errors.Is(err, lkerr.ErrInvalidInput) || !strings.Contains(err.Error(), "site") {
				t.Errorf("%s route, sites %v: got %v, want an InvalidInput placement error", r.name, bad.Site[:4], err)
			}
		}
	}
}

func TestGateCountGuard(t *testing.T) {
	lib, proc, _, _ := testSetup(t, 16)
	big := &netlist.Netlist{Name: "big", NumPI: 1}
	for i := 0; i < DefaultMaxGates+1; i++ {
		big.Gates = append(big.Gates, netlist.Gate{Type: "INV_X1"})
	}
	grid, _ := placement.AutoGrid(DefaultMaxGates + 1)
	pl, _ := placement.RowMajor(grid, DefaultMaxGates+1)
	// The dense sampler keeps its historical O(n³) budget; auto now routes
	// designs this size to the FFT path instead of refusing them.
	_, err := Run(Config{Lib: lib, Proc: proc, SignalProb: 0.5, Sampler: SamplerDense}, big, pl)
	if err == nil {
		t.Fatalf("oversized netlist accepted by the dense sampler")
	}
	if !errors.Is(err, lkerr.ErrBudgetExceeded) {
		t.Errorf("gate-count guard returned %v, want BudgetExceeded", err)
	}
	// The FFT sampler has a budget too.
	_, err = Run(Config{Lib: lib, Proc: proc, SignalProb: 0.5, Sampler: SamplerFFT,
		MaxGates: DefaultMaxGates}, big, pl)
	if !errors.Is(err, lkerr.ErrBudgetExceeded) {
		t.Errorf("FFT gate-count guard returned %v, want BudgetExceeded", err)
	}
	// The configured limit overrides the default, and the error names it.
	_, err = Run(Config{Lib: lib, Proc: proc, SignalProb: 0.5, MaxGates: 8}, big, pl)
	if !errors.Is(err, lkerr.ErrBudgetExceeded) || !strings.Contains(err.Error(), "MaxGates=8") {
		t.Errorf("configured limit not reported: %v", err)
	}
	// Raising the budget admits the design (don't run it: just check the
	// guard no longer fires by using a tiny but sufficient netlist).
	small := &netlist.Netlist{Name: "small", NumPI: 1,
		Gates: []netlist.Gate{{Type: "INV_X1"}, {Type: "INV_X1"}}}
	sg, _ := placement.AutoGrid(2)
	spl, _ := placement.RowMajor(sg, 2)
	if _, err := Run(Config{Lib: lib, Proc: proc, SignalProb: 0.5, MaxGates: 2, Samples: 10}, small, spl); err != nil {
		t.Errorf("within-budget run failed: %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	lib, proc, nl, pl := testSetup(t, 36)
	a, err := Run(Config{Lib: lib, Proc: proc, SignalProb: 0.5, Samples: 200, Seed: 3}, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Lib: lib, Proc: proc, SignalProb: 0.5, Samples: 200, Seed: 3}, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	if a.Mean != b.Mean || a.Std != b.Std {
		t.Errorf("same seed produced different results")
	}
	c, _ := Run(Config{Lib: lib, Proc: proc, SignalProb: 0.5, Samples: 200, Seed: 4}, nl, pl)
	if a.Mean == c.Mean {
		t.Errorf("different seeds produced identical results")
	}
}

// The lognormal two-moment approximation of the full-chip distribution
// (core.Distribution) should track the sampled quantiles.
func TestLognormalApproximationTracksQuantiles(t *testing.T) {
	lib, proc, nl, pl := testSetup(t, 225)
	mc, err := Run(Config{Lib: lib, Proc: proc, SignalProb: 0.5, Samples: 4000, Seed: 12}, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.NewDistribution(mc.Mean, mc.Std)
	if err != nil {
		t.Fatal(err)
	}
	p05 := d.Quantile(0.05)
	p95 := d.Quantile(0.95)
	t.Logf("MC [q05,q95] = [%.4g, %.4g], lognormal = [%.4g, %.4g]", mc.Q05, mc.Q95, p05, p95)
	if math.Abs(p05-mc.Q05)/mc.Q05 > 0.06 {
		t.Errorf("q05: lognormal %.4g vs MC %.4g", p05, mc.Q05)
	}
	if math.Abs(p95-mc.Q95)/mc.Q95 > 0.06 {
		t.Errorf("q95: lognormal %.4g vs MC %.4g", p95, mc.Q95)
	}
}
