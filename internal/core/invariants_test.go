package core

import (
	"math"
	"testing"
	"testing/quick"

	"leakest/internal/placement"
	"leakest/internal/spatial"
	"leakest/internal/stats"
)

// Physical invariants of the estimators, checked as properties.

// procWithLambda builds the test process with a given correlation length.
func procWithLambda(lambda float64) *spatial.Process {
	base := spatial.Default90nm()
	return &spatial.Process{
		LNominal: base.LNominal,
		SigmaD2D: base.SigmaD2D,
		SigmaWID: base.SigmaWID,
		SigmaVt:  base.SigmaVt,
		WIDCorr:  spatial.TruncatedExpCorr{Lambda: lambda, R: 4 * lambda},
	}
}

func TestVarianceMonotoneInCorrelationLength(t *testing.T) {
	// More within-die correlation ⇒ more full-chip variance: σ(λ) must be
	// non-decreasing in λ for a fixed design.
	lib := testLib(t)
	spec := squareSpec(t, 1024)
	prev := 0.0
	for _, lambda := range []float64{5, 15, 40, 100, 300} {
		m, err := NewModel(lib, procWithLambda(lambda), spec, Analytic)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.EstimateLinear()
		if err != nil {
			t.Fatal(err)
		}
		if res.Std < prev {
			t.Fatalf("σ decreased when λ grew to %g: %g < %g", lambda, res.Std, prev)
		}
		prev = res.Std
	}
}

func TestMeanIndependentOfGeometry(t *testing.T) {
	// Eq. 13: the mean depends only on n and the histogram, never on the
	// die dimensions.
	lib := testLib(t)
	proc := testProcess()
	base := squareSpec(t, 1024)
	ref, err := NewModel(lib, proc, base, Analytic)
	if err != nil {
		t.Fatal(err)
	}
	want := mustLinear(t, ref).Mean
	for _, dims := range [][2]float64{{32, 128}, {256, 16}, {90, 45.5}} {
		spec := base
		spec.W, spec.H = dims[0], dims[1]
		m, err := NewModel(lib, proc, spec, Analytic)
		if err != nil {
			t.Fatal(err)
		}
		if got := mustLinear(t, m).Mean; got != want {
			t.Errorf("W×H = %v: mean %g, want %g", dims, got, want)
		}
	}
}

func mustLinear(t *testing.T, m *Model) Result {
	t.Helper()
	res, err := m.EstimateLinear()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestVarianceBounds(t *testing.T) {
	// For every mode and size: n·σ²_XI ≤ σ² ≤ n·σ²_XI + n(n−1)·F(1).
	for _, mode := range []Mode{Analytic, MCSimplified, AnalyticSimplified} {
		for _, n := range []int{16, 144, 1024} {
			m := newTestModel(t, n, mode)
			res := mustLinear(t, m)
			v := res.Std * res.Std
			nf := float64(n)
			lo := nf * m.RGVariance()
			hi := nf*m.RGVariance() + nf*(nf-1)*m.CovAtCorr(1)
			if v < lo*(1-1e-9) {
				t.Errorf("%v n=%d: σ²=%g below independent bound %g", mode, n, v, lo)
			}
			if v > hi*(1+1e-9) {
				t.Errorf("%v n=%d: σ²=%g above full-correlation bound %g", mode, n, v, hi)
			}
		}
	}
}

func TestVarianceSuperlinearGrowth(t *testing.T) {
	// At fixed gate density, with correlation present, σ² grows faster
	// than n (the n → n² transition that breaks the naive estimator).
	lib := testLib(t)
	proc := testProcess()
	var prevVar, prevN float64
	for _, side := range []int{8, 16, 32, 64} {
		n := side * side
		w := float64(side) * placement.DefaultSitePitch
		spec := DesignSpec{Hist: testHist(t), N: n, W: w, H: w, SignalProb: 0.5}
		m, err := NewModel(lib, proc, spec, Analytic)
		if err != nil {
			t.Fatal(err)
		}
		res := mustLinear(t, m)
		v := res.Std * res.Std
		if prevVar > 0 {
			growth := v / prevVar
			nGrowth := float64(n) / prevN
			if growth < nGrowth {
				t.Errorf("side %d: σ² grew %.2fx for %.0fx gates — sublinear", side, growth, nGrowth)
			}
		}
		prevVar, prevN = v, float64(n)
	}
}

// sameStats reports whether two results carry identical statistics and
// bookkeeping (Result itself is not comparable since it grew Timings).
func sameStats(a, b Result) bool {
	return a.Mean == b.Mean && a.Std == b.Std && a.Method == b.Method &&
		a.GridRows == b.GridRows && a.GridCols == b.GridCols && a.Note == b.Note
}

func TestEstimateDeterministic(t *testing.T) {
	m := newTestModel(t, 256, Analytic)
	a := mustLinear(t, m)
	b := mustLinear(t, m)
	if !sameStats(a, b) {
		t.Errorf("repeated estimation differs: %+v vs %+v", a, b)
	}
	i1, err := m.EstimatePolar()
	if err != nil {
		t.Fatal(err)
	}
	i2, err := m.EstimatePolar()
	if err != nil {
		t.Fatal(err)
	}
	if !sameStats(i1, i2) {
		t.Errorf("integral estimation not deterministic")
	}
}

// Property: for random aspect ratios the linear and O(1) integral estimates
// agree within a few percent at moderate n (rectangular dies, not just
// squares).
func TestRectangularDieAgreement(t *testing.T) {
	lib := testLib(t)
	proc := testProcess()
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed, "rect")
		cols := 24 + rng.Intn(40)
		rows := 24 + rng.Intn(40)
		n := cols * rows
		spec := DesignSpec{
			Hist:       testHist(t),
			N:          n,
			W:          float64(cols) * placement.DefaultSitePitch,
			H:          float64(rows) * placement.DefaultSitePitch,
			SignalProb: 0.5,
		}
		m, err := NewModel(lib, proc, spec, Analytic)
		if err != nil {
			return false
		}
		lin, err := m.EstimateLinear()
		if err != nil {
			return false
		}
		integ, err := m.EstimatePolar()
		if err != nil {
			return false
		}
		return math.Abs(stats.RelErr(integ.Std, lin.Std)) < 3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestSignalProbabilityMovesMoments(t *testing.T) {
	// Changing p changes the RG statistics (unless the histogram is all
	// zero-input cells): sanity that the state weighting is plumbed in.
	lib := testLib(t)
	proc := testProcess()
	spec := squareSpec(t, 256)
	m1, err := NewModel(lib, proc, spec, Analytic)
	if err != nil {
		t.Fatal(err)
	}
	spec.SignalProb = 0.9
	m2, err := NewModel(lib, proc, spec, Analytic)
	if err != nil {
		t.Fatal(err)
	}
	if m1.MeanPerGate() == m2.MeanPerGate() {
		t.Errorf("signal probability had no effect on µ_XI")
	}
}
