package charlib

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"

	"leakest/internal/cells"
	"leakest/internal/spatial"
	"leakest/internal/stats"
)

func coreLib(t *testing.T) *Library {
	t.Helper()
	lib, err := SharedCore()
	if err != nil {
		t.Fatalf("SharedCore: %v", err)
	}
	return lib
}

func TestCharacterizeCore(t *testing.T) {
	lib := coreLib(t)
	if len(lib.Cells) != len(cells.CoreSubset()) {
		t.Fatalf("characterized %d cells", len(lib.Cells))
	}
	for _, cc := range lib.Cells {
		if len(cc.States) != 1<<uint(cc.NumInputs) {
			t.Errorf("%s: %d states for %d inputs", cc.Name, len(cc.States), cc.NumInputs)
		}
		for _, st := range cc.States {
			if !(st.MCMean > 0 && st.MCStd > 0) {
				t.Errorf("%s/%d: MC moments %g, %g", cc.Name, st.State, st.MCMean, st.MCStd)
			}
			if !(st.FitMean > 0 && st.FitStd > 0) {
				t.Errorf("%s/%d: fit moments %g, %g", cc.Name, st.State, st.FitMean, st.FitStd)
			}
			if st.A <= 0 {
				t.Errorf("%s/%d: fit amplitude %g", cc.Name, st.State, st.A)
			}
			if st.B >= 0 {
				t.Errorf("%s/%d: fitted b = %g, leakage must decrease with L", cc.Name, st.State, st.B)
			}
		}
	}
}

// The §2.1.2 validation: analytical moments close to MC moments for every
// cell and state. The paper reports mean errors < 2 % (avg 0.44 %) and
// sigma errors avg 3.1 %, max ≈ 10 %.
func TestAnalyticalVsMCAccuracy(t *testing.T) {
	lib := coreLib(t)
	var meanErrs, stdErrs []float64
	for _, cc := range lib.Cells {
		for _, st := range cc.States {
			meanErrs = append(meanErrs, math.Abs(stats.RelErr(st.FitMean, st.MCMean)))
			stdErrs = append(stdErrs, math.Abs(stats.RelErr(st.FitStd, st.MCStd)))
		}
	}
	meanAvg := stats.Mean(meanErrs)
	stdAvg := stats.Mean(stdErrs)
	_, meanMax := stats.MinMax(meanErrs)
	_, stdMax := stats.MinMax(stdErrs)
	t.Logf("mean err: avg %.2f%%, max %.2f%% | std err: avg %.2f%%, max %.2f%%",
		meanAvg, meanMax, stdAvg, stdMax)
	// Generous envelopes: MC with 5000 samples has ~1.5 % noise on std.
	if meanAvg > 3 || meanMax > 8 {
		t.Errorf("mean errors too large: avg %.2f%%, max %.2f%%", meanAvg, meanMax)
	}
	if stdAvg > 8 || stdMax > 25 {
		t.Errorf("std errors too large: avg %.2f%%, max %.2f%%", stdAvg, stdMax)
	}
}

func TestFitABCRecoversExactModel(t *testing.T) {
	// If ln I is exactly quadratic the fit must recover (a, b, c).
	a, b, c := 2.5e-9, -75.0, 300.0
	ls := []float64{0.080, 0.084, 0.088, 0.092, 0.096, 0.100}
	gotA, gotB, gotC, err := FitABC(ls, func(l float64) float64 {
		return math.Log(a) + b*l + c*l*l
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotA-a)/a > 1e-6 || math.Abs(gotB-b) > 1e-6*math.Abs(b) || math.Abs(gotC-c) > 1e-4*math.Abs(c) {
		t.Errorf("fit = (%g, %g, %g), want (%g, %g, %g)", gotA, gotB, gotC, a, b, c)
	}
}

func TestFitABCErrors(t *testing.T) {
	if _, _, _, err := FitABC([]float64{1, 2}, func(float64) float64 { return 0 }); err == nil {
		t.Errorf("expected error for too few points")
	}
	if _, _, _, err := FitABC([]float64{1, 1, 1}, func(float64) float64 { return 0 }); err == nil {
		t.Errorf("expected error for degenerate grid")
	}
}

func TestStateProbAndEffectiveStats(t *testing.T) {
	lib := coreLib(t)
	nand, err := lib.Cell("NAND2_X1")
	if err != nil {
		t.Fatal(err)
	}
	// State probabilities sum to 1 for any p.
	for _, p := range []float64{0, 0.25, 0.5, 1} {
		sum := 0.0
		for s := uint(0); s < 4; s++ {
			sum += nand.StateProb(s, p)
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("p=%g: state probs sum to %g", p, sum)
		}
	}
	// p = 0 selects state 0 exactly.
	m0, _ := nand.EffectiveStats(0, true)
	if math.Abs(m0-nand.States[0].MCMean) > 1e-18 {
		t.Errorf("p=0 mean %g != state-0 mean %g", m0, nand.States[0].MCMean)
	}
	// p = 1 selects the all-ones state.
	m1, _ := nand.EffectiveStats(1, true)
	if math.Abs(m1-nand.States[3].MCMean) > 1e-18 {
		t.Errorf("p=1 mean %g != state-3 mean %g", m1, nand.States[3].MCMean)
	}
	// Mixture mean is a convex combination: within [min, max] state means.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, st := range nand.States {
		lo = math.Min(lo, st.MCMean)
		hi = math.Max(hi, st.MCMean)
	}
	m, sd := nand.EffectiveStats(0.5, true)
	if m < lo || m > hi {
		t.Errorf("p=0.5 mean %g outside [%g, %g]", m, lo, hi)
	}
	if sd <= 0 {
		t.Errorf("p=0.5 std = %g", sd)
	}
}

func TestCellLookup(t *testing.T) {
	lib := coreLib(t)
	if _, err := lib.Cell("INV_X1"); err != nil {
		t.Errorf("Cell(INV_X1): %v", err)
	}
	if _, err := lib.Cell("NOPE"); err == nil {
		t.Errorf("expected error for unknown cell")
	}
}

func TestVtMeanFactor(t *testing.T) {
	lib := coreLib(t)
	f := lib.VtMeanFactor()
	if f <= 1 {
		t.Errorf("Vt mean factor = %g, must exceed 1", f)
	}
	// σ_Vt = 30 mV, n·vT ≈ 36 mV ⇒ factor = exp(0.5·(30/36.26)²) ≈ 1.41.
	want := math.Exp(0.5 * math.Pow(0.030/(1.4*0.0259), 2))
	if math.Abs(f-want) > 1e-9 {
		t.Errorf("factor = %g, want %g", f, want)
	}
	noVt := *lib.Process
	noVt.SigmaVt = 0
	lib2 := &Library{Process: &noVt}
	if lib2.VtMeanFactor() != 1 {
		t.Errorf("zero-σVt factor should be 1")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	lib := coreLib(t)
	var buf bytes.Buffer
	if err := lib.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(got.Cells) != len(lib.Cells) {
		t.Fatalf("round trip lost cells: %d vs %d", len(got.Cells), len(lib.Cells))
	}
	a, _ := lib.Cell("NAND2_X1")
	b, err := got.Cell("NAND2_X1")
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.States {
		if a.States[i].MCMean != b.States[i].MCMean || a.States[i].A != b.States[i].A {
			t.Errorf("state %d: moments differ after round trip", i)
		}
		// Curves rebuilt: evaluation must match.
		l := lib.Process.LNominal * 1.02
		if x, y := a.States[i].Leakage(l), b.States[i].Leakage(l); math.Abs(x-y)/x > 1e-12 {
			t.Errorf("state %d: curve differs after round trip (%g vs %g)", i, x, y)
		}
	}
	if got.Process.LNominal != lib.Process.LNominal {
		t.Errorf("process lost in round trip")
	}
	if got.Process.WIDCorr.Name() != lib.Process.WIDCorr.Name() {
		t.Errorf("correlation function lost: %s vs %s",
			got.Process.WIDCorr.Name(), lib.Process.WIDCorr.Name())
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("{")); err == nil {
		t.Errorf("expected decode error")
	}
	if _, err := Load(bytes.NewBufferString("{}")); err == nil {
		t.Errorf("expected missing-process error")
	}
}

func TestConfigValidation(t *testing.T) {
	proc := spatial.Default90nm()
	bad := []Config{
		{},
		{Process: proc, CurvePoints: 2},
		{Process: proc, FitPoints: 2},
		{Process: proc, MCSamples: 10},
		{Process: &spatial.Process{LNominal: -1}},
	}
	for i, cfg := range bad {
		if _, err := Characterize(cells.CoreSubset()[:1], cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := Characterize(nil, Config{Process: proc}); err == nil {
		t.Errorf("empty library accepted")
	}
}

func TestPairCovAndLeakageCorr(t *testing.T) {
	lib := coreLib(t)
	nand, _ := lib.Cell("NAND2_X1")
	nor, _ := lib.Cell("NOR2_X1")
	a := &nand.States[0]
	b := &nor.States[0]
	mu, sigma := lib.Process.LNominal, lib.Process.TotalSigma()

	// ρ_L = 0 ⇒ covariance 0, correlation 0.
	cov, err := PairCov(a, b, 0, mu, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cov) > 1e-12*a.FitMean*b.FitMean {
		t.Errorf("ρ=0 covariance = %g", cov)
	}
	// ρ_L = 1 with itself ⇒ correlation exactly 1.
	rho, err := LeakageCorr(a, a, 1, mu, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho-1) > 1e-9 {
		t.Errorf("self correlation at ρ=1 is %g", rho)
	}
	// Monotone and near the y = x line (Fig. 2's observation).
	prev := -1.0
	for _, r := range []float64{0, 0.2, 0.4, 0.6, 0.8, 0.95, 1} {
		rho, err := LeakageCorr(a, b, r, mu, sigma)
		if err != nil {
			t.Fatalf("ρ_L=%g: %v", r, err)
		}
		if rho < prev {
			t.Errorf("leakage correlation not monotone at ρ_L=%g", r)
		}
		prev = rho
		if math.Abs(rho-r) > 0.12 {
			t.Errorf("ρ_leak(%g) = %g strays far from y=x", r, rho)
		}
	}
	// Domain error.
	if _, err := PairCov(a, b, 1.5, mu, sigma); err == nil {
		t.Errorf("expected error for ρ outside [-1,1]")
	}
}

func TestMCPairCorrMatchesAnalytic(t *testing.T) {
	lib := coreLib(t)
	nand, _ := lib.Cell("NAND2_X1")
	inv, _ := lib.Cell("INV_X1")
	a := &nand.States[1]
	b := &inv.States[0]
	mu, sigma := lib.Process.LNominal, lib.Process.TotalSigma()
	rng := stats.NewRNG(77, "mc-pair")
	for _, r := range []float64{0.0, 0.5, 0.9} {
		mc := MCPairCorr(a, b, r, mu, sigma, 40000, rng)
		an, err := LeakageCorr(a, b, r, mu, sigma)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mc-an) > 0.03 {
			t.Errorf("ρ_L=%g: MC %g vs analytic %g", r, mc, an)
		}
	}
}

func TestDesignStatsAtPAndMaximizer(t *testing.T) {
	lib := coreLib(t)
	hist, err := stats.NewHistogram(map[string]float64{
		"INV_X1": 4, "NAND2_X1": 3, "NOR2_X1": 2, "XOR2_X1": 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	m0, s0, err := DesignStatsAtP(lib, hist, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if !(m0 > 0 && s0 > 0) {
		t.Fatalf("p=0 stats: %g, %g", m0, s0)
	}
	// Error paths.
	if _, _, err := DesignStatsAtP(lib, hist, -0.1, true); err == nil {
		t.Errorf("expected error for p<0")
	}
	badHist, _ := stats.NewHistogram(map[string]float64{"MISSING": 1})
	if _, _, err := DesignStatsAtP(lib, badHist, 0.5, true); err == nil {
		t.Errorf("expected error for unknown cell")
	}
	// Maximizer: must beat (or tie) a coarse sweep.
	pStar, err := MaximizingSignalProb(lib, hist, true)
	if err != nil {
		t.Fatal(err)
	}
	if pStar < 0 || pStar > 1 {
		t.Fatalf("p* = %g", pStar)
	}
	mStar, _, _ := DesignStatsAtP(lib, hist, pStar, true)
	for p := 0.0; p <= 1.0001; p += 0.05 {
		m, _, _ := DesignStatsAtP(lib, hist, math.Min(p, 1), true)
		if m > mStar*(1+1e-9) {
			t.Errorf("p=%g beats p*=%g: %g > %g", p, pStar, m, mStar)
		}
	}
}

func TestEffectiveStatsPins(t *testing.T) {
	lib := coreLib(t)
	nand, err := lib.Cell("NAND2_X1")
	if err != nil {
		t.Fatal(err)
	}
	// Uniform pins reproduce EffectiveStats.
	for _, p := range []float64{0, 0.3, 0.5, 1} {
		m1, s1 := nand.EffectiveStats(p, false)
		m2, s2, cs := nand.EffectiveStatsPins([]float64{p, p}, false)
		if math.Abs(m1-m2) > 1e-18 || math.Abs(s1-s2) > 1e-18 {
			t.Errorf("p=%g: pins path differs: (%g,%g) vs (%g,%g)", p, m2, s2, m1, s1)
		}
		if cs <= 0 {
			t.Errorf("p=%g: corrSigma = %g", p, cs)
		}
	}
	// Heterogeneous pins: state probabilities must still sum to 1.
	sum := 0.0
	for s := uint(0); s < 4; s++ {
		sum += nand.StateProbPins(s, []float64{0.2, 0.9})
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("heterogeneous state probs sum to %g", sum)
	}
	// Short pin vector defaults missing pins to 0.5.
	short := nand.StateProbPins(0, []float64{0.2})
	if math.Abs(short-0.8*0.5) > 1e-12 {
		t.Errorf("short pin vector: %g, want 0.4", short)
	}
}

func TestSaveFileLoadFile(t *testing.T) {
	lib := coreLib(t)
	path := filepath.Join(t.TempDir(), "lib.json")
	if err := lib.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cells) != len(lib.Cells) {
		t.Errorf("file round trip lost cells")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Errorf("missing file accepted")
	}
	if err := lib.SaveFile("/nonexistent-dir/lib.json"); err == nil {
		t.Errorf("unwritable path accepted")
	}
}

func TestSharedLibraries(t *testing.T) {
	a, err := SharedISCAS()
	if err != nil {
		t.Fatal(err)
	}
	b, err := SharedISCAS()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("SharedISCAS not memoized")
	}
	if len(a.Cells) != 8 {
		t.Errorf("ISCAS subset has %d cells", len(a.Cells))
	}
}
