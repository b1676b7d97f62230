package leakest

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"leakest/internal/cells"
	"leakest/internal/charlib"
)

// coreEstimator builds an estimator over the fast shared-core library.
func coreEstimator(t *testing.T) *Estimator {
	t.Helper()
	lib, err := charlib.SharedCore()
	if err != nil {
		t.Fatal(err)
	}
	est, err := NewEstimator(lib, nil)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func coreHist(t *testing.T) *Histogram {
	t.Helper()
	h, err := NewHistogram(map[string]float64{
		"INV_X1": 3, "NAND2_X1": 2, "NOR2_X1": 2, "XOR2_X1": 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewEstimatorValidation(t *testing.T) {
	if _, err := NewEstimator(nil, nil); err == nil {
		t.Errorf("nil library accepted")
	}
	lib, _ := charlib.SharedCore()
	bad := &Process{LNominal: -1}
	if _, err := NewEstimator(lib, bad); err == nil {
		t.Errorf("invalid process accepted")
	}
	est, err := NewEstimator(lib, nil)
	if err != nil {
		t.Fatal(err)
	}
	if est.Process() != lib.Process || est.Library() != lib {
		t.Errorf("accessors wrong")
	}
}

func TestEstimateAllMethods(t *testing.T) {
	est := coreEstimator(t)
	design := Design{Hist: coreHist(t), N: 2500, W: 100, H: 100, SignalProb: 0.5}
	var linear Result
	for _, method := range []Method{Linear, Integral2D, Naive, Auto} {
		res, err := est.EstimateContext(context.Background(), design, method)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if !(res.Mean > 0 && res.Std > 0) {
			t.Errorf("%v: degenerate result %+v", method, res)
		}
		if method == Linear {
			linear = res
		}
	}
	// All correlated methods must agree on the mean exactly.
	integ, _ := est.EstimateContext(context.Background(), design, Integral2D)
	if integ.Mean != linear.Mean {
		t.Errorf("means differ across methods: %g vs %g", integ.Mean, linear.Mean)
	}
	// And the naive baseline must report smaller σ.
	naive, _ := est.EstimateContext(context.Background(), design, Naive)
	if naive.Std >= linear.Std {
		t.Errorf("naive σ %g not below correlated %g", naive.Std, linear.Std)
	}
	// Unknown method.
	if _, err := est.EstimateContext(context.Background(), design, Method(99)); err == nil {
		t.Errorf("unknown method accepted")
	}
}

// TestIntegral2DIsPolar: Integral2D runs the polar form of Eq. 20, so its
// results are Polar's bit for bit — moments, method label, note and the
// estimator span — on a square die and on one narrower than the
// correlation range.
func TestIntegral2DIsPolar(t *testing.T) {
	est := coreEstimator(t)
	for _, design := range []Design{
		{Hist: coreHist(t), N: 2500, W: 100, H: 100, SignalProb: 0.5},
		{Hist: coreHist(t), N: 300, W: 60, H: 10, SignalProb: 0.3},
	} {
		integ, err := est.EstimateContext(context.Background(), design, Integral2D)
		if err != nil {
			t.Fatal(err)
		}
		polar, err := est.EstimateContext(context.Background(), design, Polar)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(integ.Mean) != math.Float64bits(polar.Mean) ||
			math.Float64bits(integ.Std) != math.Float64bits(polar.Std) ||
			integ.Method != "polar-1d" || integ.Method != polar.Method || integ.Note != polar.Note {
			t.Errorf("N=%d: integral %+v != polar %+v", design.N, integ, polar)
		}
		stages := func(r Result) []string {
			var out []string
			for _, s := range r.Timings {
				out = append(out, s.Stage)
			}
			return out
		}
		if got, want := stages(integ), stages(polar); !slices.Equal(got, want) || !slices.Contains(got, "estimate.polar-1d") {
			t.Errorf("N=%d: integral stages %v, polar stages %v", design.N, got, want)
		}
	}
}

func TestAutoSwitchesMethod(t *testing.T) {
	est := coreEstimator(t)
	small := Design{Hist: coreHist(t), N: 100, W: 20, H: 20, SignalProb: 0.5}
	res, err := est.EstimateContext(context.Background(), small, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "linear" {
		t.Errorf("auto small design used %s", res.Method)
	}
	big := Design{Hist: coreHist(t), N: 250000, W: 1000, H: 1000, SignalProb: 0.5}
	res, err = est.EstimateContext(context.Background(), big, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "polar-1d" {
		t.Errorf("auto large design used %s", res.Method)
	}
}

// A method's name is its ParseMethod spelling, so a message that names a
// method names one the user can type.
func TestMethodString(t *testing.T) {
	for m, want := range map[Method]string{
		Auto: "auto", Linear: "linear", Integral2D: "integral",
		Polar: "polar", Naive: "naive",
	} {
		if m.String() != want {
			t.Errorf("Method(%d) = %s, want %s", int(m), m, want)
		}
		if got, err := ParseMethod(m.String()); err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", m.String(), got, err, int(m))
		}
	}
}

func TestLateModeFlow(t *testing.T) {
	est := coreEstimator(t)
	nl, err := RandomCircuit(est.Library(), 17, "late", 400, 16, coreHist(t))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := AutoPlace(nl, 17)
	if err != nil {
		t.Fatal(err)
	}
	design, err := est.ExtractDesign(nl, pl, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if design.N != 400 {
		t.Errorf("extracted N = %d", design.N)
	}
	late, err := est.EstimateNetlist(nl, pl, 0.5, Linear)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := est.TrueLeakageContext(context.Background(), nl, pl, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	meanErr := math.Abs(100 * (late.Mean - truth.Mean) / truth.Mean)
	stdErr := math.Abs(100 * (late.Std - truth.Std) / truth.Std)
	t.Logf("late-mode: mean err %.2f%%, std err %.2f%%", meanErr, stdErr)
	if meanErr > 3 || stdErr > 8 {
		t.Errorf("late-mode errors too large: mean %.2f%%, std %.2f%%", meanErr, stdErr)
	}
}

func TestMonteCarloFacade(t *testing.T) {
	est := coreEstimator(t)
	nl, err := RandomCircuit(est.Library(), 23, "mc", 100, 8, coreHist(t))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := AutoPlace(nl, 23)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := est.MonteCarloContext(context.Background(), nl, pl, 0.5, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := est.TrueLeakageContext(context.Background(), nl, pl, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mc.Mean-truth.Mean)/truth.Mean > 0.1 {
		t.Errorf("MC mean %g far from analytic %g", mc.Mean, truth.Mean)
	}
}

// TestMonteCarloTailTrialsNeedSpec: TailTrials alone reaches chipmc, whose
// tail validation refuses importance sampling without a spec, as the server
// does, instead of silently running plain Monte Carlo.
func TestMonteCarloTailTrialsNeedSpec(t *testing.T) {
	est, nl, pl := robustCircuit(t, 60)
	est.TailTrials = 100
	mc, err := est.MonteCarloContext(context.Background(), nl, pl, 0.5, 100, 1)
	if !errors.Is(err, ErrInvalidInput) || !strings.Contains(err.Error(), "positive tail spec") {
		t.Fatalf("got %v (tail %v), want InvalidInput: importance sampling requires a positive tail spec", err, mc.Tail)
	}
}

func TestVtMeanCorrection(t *testing.T) {
	est := coreEstimator(t)
	design := Design{Hist: coreHist(t), N: 400, W: 40, H: 40, SignalProb: 0.5}
	plain, err := est.EstimateContext(context.Background(), design, Linear)
	if err != nil {
		t.Fatal(err)
	}
	est.ApplyVtMean = true
	corrected, err := est.EstimateContext(context.Background(), design, Linear)
	if err != nil {
		t.Fatal(err)
	}
	factor := est.VtMeanFactor()
	if factor <= 1 {
		t.Fatalf("factor = %g", factor)
	}
	if math.Abs(corrected.Mean-plain.Mean*factor)/corrected.Mean > 1e-12 {
		t.Errorf("corrected mean %g != plain %g × %g", corrected.Mean, plain.Mean, factor)
	}
	if corrected.Std != plain.Std {
		t.Errorf("Vt correction must not change σ")
	}
	if !strings.Contains(corrected.Note, "random-Vt") {
		t.Errorf("missing note: %q", corrected.Note)
	}
}

func TestMaxLeakageSignalProb(t *testing.T) {
	est := coreEstimator(t)
	p, err := est.MaxLeakageSignalProb(coreHist(t))
	if err != nil {
		t.Fatal(err)
	}
	if p < 0 || p > 1 {
		t.Fatalf("p* = %g", p)
	}
	mStar, _, err := est.DesignStatsAtSignalProb(coreHist(t), p)
	if err != nil {
		t.Fatal(err)
	}
	mHalf, _, _ := est.DesignStatsAtSignalProb(coreHist(t), 0.5)
	if mStar < mHalf*(1-1e-9) {
		t.Errorf("p* mean %g below p=0.5 mean %g", mStar, mHalf)
	}
}

func TestBenchIO(t *testing.T) {
	est := coreEstimator(t)
	nl, err := RandomCircuit(est.Library(), 5, "io", 60, 8, coreHist(t))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBench(&buf, nl); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBench(bytes.NewReader(buf.Bytes()), "io")
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Gates) != len(nl.Gates) {
		t.Errorf("round trip: %d vs %d gates", len(back.Gates), len(nl.Gates))
	}
}

func TestISCASFacade(t *testing.T) {
	lib, err := charlib.SharedISCAS()
	if err != nil {
		t.Fatal(err)
	}
	nl, pl, err := ISCASCircuit(lib, "c432", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(nl.Gates) != 160 || len(pl.Site) != 160 {
		t.Errorf("c432 shape wrong: %d gates, %d sites", len(nl.Gates), len(pl.Site))
	}
	if _, _, err := ISCASCircuit(lib, "bogus", 3); err == nil {
		t.Errorf("bogus circuit accepted")
	}
	if names := ISCASNames(); len(names) != 10 {
		t.Errorf("ISCASNames = %v", names)
	}
}

func TestLibrarySaveLoadFacade(t *testing.T) {
	lib, err := charlib.SharedCore()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lib.json")
	if err := SaveLibrary(lib, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLibrary(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cells) != len(lib.Cells) {
		t.Errorf("round trip lost cells")
	}
	if err := SaveLibrary(nil, path); err == nil {
		t.Errorf("nil library accepted")
	}
}

func TestBuiltinCellsAndCharacterize(t *testing.T) {
	if got := len(BuiltinCells()); got != 62 {
		t.Errorf("BuiltinCells = %d, want 62", got)
	}
	// Characterize a one-cell library through the public API.
	sub := []*Cell{cells.CoreSubset()[0]}
	lib, err := CharacterizeContext(context.Background(), sub, CharConfig{Process: DefaultProcess(), MCSamples: 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(lib.Cells) != 1 {
		t.Errorf("characterized %d cells", len(lib.Cells))
	}
}

func TestTrimExt(t *testing.T) {
	for in, want := range map[string]string{
		"/a/b/c432.bench": "c432",
		"c17.bench":       "c17",
		"noext":           "noext",
		"/p/q/noext":      "noext",
	} {
		if got := trimExt(in); got != want {
			t.Errorf("trimExt(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestReadBenchFile(t *testing.T) {
	est := coreEstimator(t)
	nl, err := RandomCircuit(est.Library(), 2, "filetest", 40, 8, coreHist(t))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "filetest.bench")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBench(f, nl); err != nil {
		t.Fatal(err)
	}
	f.Close()
	back, err := ReadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "filetest" {
		t.Errorf("name from path = %q", back.Name)
	}
	if len(back.Gates) != len(nl.Gates) {
		t.Errorf("gates lost: %d vs %d", len(back.Gates), len(nl.Gates))
	}
	if _, err := ReadBenchFile(filepath.Join(t.TempDir(), "missing.bench")); err == nil {
		t.Errorf("missing file accepted")
	}
}

func TestDistributionAndBreakdownFacade(t *testing.T) {
	est := coreEstimator(t)
	design := Design{Hist: coreHist(t), N: 400, W: 40, H: 40, SignalProb: 0.5}
	res, err := est.EstimateContext(context.Background(), design, Linear)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DistributionOf(res)
	if err != nil {
		t.Fatal(err)
	}
	if !(d.Quantile(0.99) > res.Mean) {
		t.Errorf("p99 %g not above mean %g", d.Quantile(0.99), res.Mean)
	}
	bd, err := est.Breakdown(design)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bd.Total-res.Std*res.Std)/(res.Std*res.Std) > 1e-9 {
		t.Errorf("breakdown total %g vs σ² %g", bd.Total, res.Std*res.Std)
	}
	badDesign := design
	badDesign.N = 0
	if _, err := est.Breakdown(badDesign); err == nil {
		t.Errorf("invalid design accepted by Breakdown")
	}
}

func TestSetMode(t *testing.T) {
	est := coreEstimator(t)
	design := Design{Hist: coreHist(t), N: 400, W: 40, H: 40, SignalProb: 0.5}
	a, err := est.EstimateContext(context.Background(), design, Linear)
	if err != nil {
		t.Fatal(err)
	}
	est.SetMode(MCSimplified)
	b, err := est.EstimateContext(context.Background(), design, Linear)
	if err != nil {
		t.Fatal(err)
	}
	if a.Std == b.Std {
		t.Errorf("mode switch had no effect on σ")
	}
	est.SetMode(Analytic)
}

func TestReport(t *testing.T) {
	est := coreEstimator(t)
	est.ApplyVtMean = true
	design := Design{Hist: coreHist(t), N: 2500, W: 100, H: 100, SignalProb: 0.45}
	var buf bytes.Buffer
	if err := est.Report(&buf, "", design); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Full-chip leakage sign-off",
		"## Design characteristics",
		"| cells | 2500 |",
		"## Estimates",
		"| linear |",
		"| naive |",
		"## Leakage distribution",
		"| p99 |",
		"## Variance breakdown",
		"## Yield vs leakage budget",
		"Budget for 95% yield",
		"random-Vt mean factor",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Integral2D is Polar, so the report carries one O(1) row.
	if strings.Contains(out, "| integral |") {
		t.Errorf("report repeats the polar row as integral:\n%s", out)
	}
	// Polar applies at every geometry, this die narrower than the
	// correlation range included: its row carries real statistics.
	if !strings.Contains(out, "| polar | 0.000") || strings.Contains(out, "| polar | — ") {
		t.Errorf("report lacks a polar estimate:\n%s", out)
	}
	// Custom title.
	buf.Reset()
	if err := est.Report(&buf, "My Chip", design); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# My Chip") {
		t.Errorf("custom title not used")
	}
	est.ApplyVtMean = false
}

func TestReportAllMethodsFail(t *testing.T) {
	est := coreEstimator(t)
	bad := Design{Hist: coreHist(t), N: 0}
	var buf bytes.Buffer
	if err := est.Report(&buf, "", bad); err == nil {
		t.Errorf("invalid design produced a report")
	}
}

func TestParseMethod(t *testing.T) {
	cases := map[string]Method{
		"auto":     Auto,
		"linear":   Linear,
		"integral": Integral2D,
		"polar":    Polar,
		"naive":    Naive,
	}
	for s, want := range cases {
		got, err := ParseMethod(s)
		if err != nil {
			t.Errorf("ParseMethod(%q): %v", s, err)
		}
		if got != want {
			t.Errorf("ParseMethod(%q) = %v", s, got)
		}
	}
	for _, s := range []string{"spicy", "", "integral-2d"} {
		if _, err := ParseMethod(s); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("ParseMethod(%q): got %v, want InvalidInput", s, err)
		}
	}
}
