package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"leakest/internal/charlib"
	"leakest/internal/core"
	"leakest/internal/stats"
)

func iscasLib(t *testing.T) *charlib.Library {
	t.Helper()
	lib, err := charlib.SharedISCAS()
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func smallHist(t *testing.T) *stats.Histogram {
	t.Helper()
	h, err := stats.NewHistogram(map[string]float64{
		"INV_X1": 3, "NAND2_X1": 3, "NOR2_X1": 2, "XOR2_X1": 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// lastCell extracts the numeric percentage in the given column of the last
// row of a table.
func cellPct(t *testing.T, tb *Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(tb.Rows[row][col], "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not a percentage: %v", tb.Rows[row][col], err)
	}
	return v
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "X", Title: "demo", Header: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.AddNote("hello %d", 7)
	s := tb.String()
	for _, want := range []string{"== X: demo ==", "a", "bb", "note: hello 7"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestCellAccuracyDriver(t *testing.T) {
	tb, err := CellAccuracy(iscasLib(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 8 {
		t.Errorf("%d rows, want 8 (ISCAS subset)", len(tb.Rows))
	}
	if len(tb.Notes) != 2 {
		t.Errorf("expected paper-comparison notes, got %v", tb.Notes)
	}
	if _, err := CellAccuracy(nil); err == nil {
		t.Errorf("nil library accepted")
	}
}

func TestFig2Driver(t *testing.T) {
	tb, err := Fig2(Fig2Config{Lib: iscasLib(t), MCSamples: 4000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 12 {
		t.Errorf("%d correlation points", len(tb.Rows))
	}
	// First row is ρ=0: analytic correlation must be ~0; last is ρ=1.
	if v, _ := strconv.ParseFloat(tb.Rows[0][2], 64); v > 0.01 {
		t.Errorf("analytic ρ_leak(0) = %g", v)
	}
	if v, _ := strconv.ParseFloat(tb.Rows[len(tb.Rows)-1][2], 64); v < 0.9 {
		t.Errorf("analytic ρ_leak(1) = %g", v)
	}
	if _, err := Fig2(Fig2Config{}); err == nil {
		t.Errorf("nil library accepted")
	}
	if _, err := Fig2(Fig2Config{Lib: iscasLib(t), CellA: "NOPE", CellB: "NAND2_X1"}); err == nil {
		t.Errorf("unknown cell accepted")
	}
	if _, err := Fig2(Fig2Config{Lib: iscasLib(t), CellA: "INV_X1", CellB: "INV_X1", StateA: 99}); err == nil {
		t.Errorf("out-of-range state accepted")
	}
}

func TestFig3Driver(t *testing.T) {
	lib := iscasLib(t)
	nandHeavy, _ := stats.NewHistogram(map[string]float64{"NAND2_X1": 5, "INV_X1": 1})
	norHeavy, _ := stats.NewHistogram(map[string]float64{"NOR2_X1": 5, "INV_X1": 1})
	tb, err := Fig3(Fig3Config{
		Lib:      lib,
		Profiles: map[string]*stats.Histogram{"nand-heavy": nandHeavy, "nor-heavy": norHeavy},
		Steps:    11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 11 {
		t.Errorf("%d rows", len(tb.Rows))
	}
	// Normalized values must peak at exactly 1 somewhere per profile.
	for col := 1; col <= 2; col++ {
		peak := 0.0
		for _, row := range tb.Rows {
			v, _ := strconv.ParseFloat(row[col], 64)
			if v > peak {
				peak = v
			}
			if v <= 0 || v > 1.0001 {
				t.Errorf("normalized value %g out of (0,1]", v)
			}
		}
		if peak < 0.9999 {
			t.Errorf("profile column %d never reaches 1 (peak %g)", col, peak)
		}
	}
	if len(tb.Notes) != 2 {
		t.Errorf("expected one note per profile")
	}
	if _, err := Fig3(Fig3Config{Lib: lib}); err == nil {
		t.Errorf("missing profiles accepted")
	}
}

func TestFig6DriverShrinkingEnvelope(t *testing.T) {
	tb, err := Fig6(Fig6Config{
		Lib:   iscasLib(t),
		Hist:  smallHist(t),
		Sides: []int{8, 20},
		Reps:  4,
		Seed:  3,
		Mode:  core.Analytic,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	small := cellPct(t, tb, 0, 5)
	large := cellPct(t, tb, 1, 5)
	t.Logf("envelope: n=64 → %.2f%%, n=400 → %.2f%%", small, large)
	if large >= small {
		t.Errorf("envelope did not shrink with size: %.2f%% → %.2f%%", small, large)
	}
	if _, err := Fig6(Fig6Config{Lib: iscasLib(t)}); err == nil {
		t.Errorf("incomplete config accepted")
	}
}

func TestTable1Driver(t *testing.T) {
	tb, err := Table1(Table1Config{
		Lib:   iscasLib(t),
		Seed:  5,
		Mode:  core.Analytic,
		Names: []string{"c432", "c499"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	for i, row := range tb.Rows {
		if e := cellPct(t, tb, i, 4); e > 10 {
			t.Errorf("%s: σ error %.2f%% too large for a late-mode estimate", row[0], e)
		}
	}
	if _, err := Table1(Table1Config{}); err == nil {
		t.Errorf("nil library accepted")
	}
}

func TestFig7DriverErrorShrinks(t *testing.T) {
	tb, err := Fig7(Fig7Config{
		Lib:   iscasLib(t),
		Hist:  smallHist(t),
		Sides: []int{8, 64},
		Mode:  core.Analytic,
	})
	if err != nil {
		t.Fatal(err)
	}
	small := cellPct(t, tb, 0, 3)
	large := cellPct(t, tb, 1, 3)
	t.Logf("integral err: n=64 → %.3f%%, n=4096 → %.3f%%", small, large)
	if large >= small {
		t.Errorf("integral error did not shrink: %.3f%% → %.3f%%", small, large)
	}
	// Polar applies at both sizes, the 16 µm die narrower than R = 120 µm
	// included, and integrates the same Eq. 20 as the 2-D integral: their
	// printed errors agree to the table's last digit.
	for i, row := range tb.Rows {
		if p, q := cellPct(t, tb, i, 5), cellPct(t, tb, i, 3); math.Abs(p-q) > 0.011 {
			t.Errorf("n=%s: polar err %.2f%% vs integral err %.2f%%", row[0], p, q)
		}
	}
}

func TestSimplifiedCorrDriver(t *testing.T) {
	tb, err := SimplifiedCorr(SimplifiedCorrConfig{
		Lib:   iscasLib(t),
		Hist:  smallHist(t),
		Sides: []int{16},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 { // WID-only and WID+D2D
		t.Fatalf("%d rows", len(tb.Rows))
	}
	for i := range tb.Rows {
		if e := cellPct(t, tb, i, 4); e > 6 {
			t.Errorf("row %d: simplified error %.2f%% above envelope", i, e)
		}
	}
}

func TestVtAblationDriver(t *testing.T) {
	tb, err := VtAblation(VtAblationConfig{
		Lib:     iscasLib(t),
		Hist:    smallHist(t),
		Sides:   []int{10},
		Samples: 400,
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	ratio, _ := strconv.ParseFloat(tb.Rows[0][1], 64)
	factor, _ := strconv.ParseFloat(tb.Rows[0][2], 64)
	if ratio < factor*0.85 || ratio > factor*1.15 {
		t.Errorf("MC mean ratio %.3f far from analytic factor %.3f", ratio, factor)
	}
}

func TestNaiveBaselineDriver(t *testing.T) {
	tb, err := NaiveBaseline(NaiveBaselineConfig{
		Lib:   iscasLib(t),
		Hist:  smallHist(t),
		Sides: []int{8, 32},
		Mode:  core.Analytic,
	})
	if err != nil {
		t.Fatal(err)
	}
	r0, _ := strconv.ParseFloat(tb.Rows[0][3], 64)
	r1, _ := strconv.ParseFloat(tb.Rows[1][3], 64)
	if !(r1 < r0 && r0 < 1) {
		t.Errorf("naive/correlated ratios not shrinking below 1: %g, %g", r0, r1)
	}
}

func TestScalingDriver(t *testing.T) {
	tb, err := Scaling(ScalingConfig{
		Lib:       iscasLib(t),
		Hist:      smallHist(t),
		TrueSides: []int{8},
		FastSides: []int{16},
		Seed:      3,
		Mode:      core.Analytic,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 3 {
		t.Errorf("expected at least true/linear/integral rows, got %d", len(tb.Rows))
	}
	methods := map[string]bool{}
	for _, row := range tb.Rows {
		methods[row[0]] = true
	}
	for _, want := range []string{"true O(n²)", "linear O(n)", "integral O(1)"} {
		if !methods[want] {
			t.Errorf("missing method %q", want)
		}
	}
}

func TestGateLeakAblationDriver(t *testing.T) {
	tb, err := GateLeakAblation(GateLeakConfig{
		Hist: smallHist(t),
		Side: 16,
		Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	base, _ := strconv.ParseFloat(tb.Rows[0][3], 64)
	gated, _ := strconv.ParseFloat(tb.Rows[1][3], 64)
	if !(gated < base) {
		t.Errorf("gate leakage should dilute the CV: %.4f vs %.4f", gated, base)
	}
	if _, err := GateLeakAblation(GateLeakConfig{}); err == nil {
		t.Errorf("missing histogram accepted")
	}
}

func TestGridCompareDriver(t *testing.T) {
	tb, err := GridCompare(GridCompareConfig{
		Lib:      iscasLib(t),
		Hist:     smallHist(t),
		Side:     16,
		GridDims: []int{2, 8},
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 { // RG + two grid resolutions
		t.Fatalf("%d rows", len(tb.Rows))
	}
	// The finer grid must beat the coarse one against the same truth.
	coarse := cellPct(t, tb, 1, 2)
	fine := cellPct(t, tb, 2, 2)
	if fine > coarse+0.5 {
		t.Errorf("finer grid worse: %.2f%% vs %.2f%%", fine, coarse)
	}
	if _, err := GridCompare(GridCompareConfig{}); err == nil {
		t.Errorf("empty config accepted")
	}
}

func TestTemperatureSweepDriver(t *testing.T) {
	tb, err := TemperatureSweep(TemperatureConfig{
		Hist:   smallHist(t),
		TempsK: []float64{300, 375},
		Side:   10,
		Seed:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	cold, _ := strconv.ParseFloat(tb.Rows[0][1], 64)
	hot, _ := strconv.ParseFloat(tb.Rows[1][1], 64)
	if hot < 3*cold {
		t.Errorf("75 K should multiply the mean several-fold: %g vs %g", hot, cold)
	}
	if _, err := TemperatureSweep(TemperatureConfig{}); err == nil {
		t.Errorf("missing histogram accepted")
	}
	if _, err := TemperatureSweep(TemperatureConfig{Hist: smallHist(t), TempsK: []float64{900}}); err == nil {
		t.Errorf("out-of-range temperature accepted")
	}
}

func TestSignalPropagationDriver(t *testing.T) {
	tb, err := SignalPropagation(SigPropConfig{
		Lib:        iscasLib(t),
		Hist:       smallHist(t),
		Side:       12,
		InputProbs: []float64{0.5},
		Seed:       9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	// Propagated and uniform must be in the same ballpark (same circuit,
	// same physics), but generally different.
	dMean := cellPct(t, tb, 0, 3)
	if dMean > 40 || dMean < -40 {
		t.Errorf("Δmean %.1f%% implausibly large", dMean)
	}
	if !strings.Contains(tb.Notes[0], "covers") {
		t.Errorf("missing conservativeness note: %v", tb.Notes)
	}
	if _, err := SignalPropagation(SigPropConfig{}); err == nil {
		t.Errorf("empty config accepted")
	}
}

// TestDriversEmitClaims pins the machine-checkable claim names each
// experiment hands to the paperfigs conformance gate, and that every claim
// stays under the envelope recorded for it.
func TestDriversEmitClaims(t *testing.T) {
	lib := iscasLib(t)
	hist := smallHist(t)

	claimNames := func(tb *Table) map[string]int {
		m := map[string]int{}
		for _, c := range tb.Claims {
			m[c.Name]++
			if c.Value < 0 {
				t.Errorf("claim %s carries a negative magnitude %g", c.Name, c.Value)
			}
		}
		return m
	}

	cell, err := CellAccuracy(lib)
	if err != nil {
		t.Fatal(err)
	}
	got := claimNames(cell)
	if got["e1.mean_err_max"] != 1 || got["e1.std_err_max"] != 1 {
		t.Errorf("CellAccuracy claims = %v", got)
	}

	fig7, err := Fig7(Fig7Config{Lib: lib, Hist: hist, Sides: []int{5, 64}, Mode: core.Analytic})
	if err != nil {
		t.Fatal(err)
	}
	got = claimNames(fig7)
	if got["e7.integral_err"] != 2 {
		t.Errorf("Fig7 must claim one integral error per size; got %v", got)
	}
	// Polar applies at every size, the 10 µm die at n=25 included.
	if got["e7.polar_err"] != 2 {
		t.Errorf("Fig7 must claim one polar error per size; got %v", got)
	}

	simpl, err := SimplifiedCorr(SimplifiedCorrConfig{Lib: lib, Hist: hist, Sides: []int{12}})
	if err != nil {
		t.Fatal(err)
	}
	if got = claimNames(simpl); got["e6.simpl_err_worst"] != 1 {
		t.Errorf("SimplifiedCorr claims = %v", got)
	}
}
