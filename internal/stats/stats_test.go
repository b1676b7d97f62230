package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %g, want 5", m)
	}
	// Sample variance with n-1: sum of squared devs is 32, /7.
	if v := Variance(xs); math.Abs(v-32.0/7) > 1e-12 {
		t.Errorf("Variance = %g, want %g", v, 32.0/7)
	}
	if s := StdDev(xs); math.Abs(s-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("StdDev = %g", s)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Errorf("empty/degenerate cases wrong")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if q := Quantile(xs, 0); q != 1 {
		t.Errorf("q0 = %g", q)
	}
	if q := Quantile(xs, 1); q != 5 {
		t.Errorf("q1 = %g", q)
	}
	if q := Quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %g", q)
	}
	if q := Quantile(xs, 0.25); q != 2 {
		t.Errorf("q25 = %g", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Errorf("empty quantile should be NaN")
	}
}

func TestMinMaxRelErr(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 0})
	if min != -1 || max != 7 {
		t.Errorf("MinMax = %g,%g", min, max)
	}
	if e := RelErr(110, 100); e != 10 {
		t.Errorf("RelErr = %g, want 10", e)
	}
	if e := RelErr(90, 100); e != -10 {
		t.Errorf("RelErr = %g, want -10", e)
	}
}

func TestRunningMatchesBatch(t *testing.T) {
	rng := NewRNG(42, "running")
	xs := make([]float64, 1000)
	var r Running
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 7
		r.Push(xs[i])
	}
	if math.Abs(r.Mean()-Mean(xs)) > 1e-10 {
		t.Errorf("running mean %g != batch %g", r.Mean(), Mean(xs))
	}
	if math.Abs(r.Variance()-Variance(xs)) > 1e-10 {
		t.Errorf("running var %g != batch %g", r.Variance(), Variance(xs))
	}
	var empty Running
	if empty.Variance() != 0 || empty.StdDev() != 0 {
		t.Errorf("empty Running variance should be 0")
	}
}

func TestNewRNGStreamsDiffer(t *testing.T) {
	a := NewRNG(1, "a")
	b := NewRNG(1, "b")
	same := true
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			same = false
		}
	}
	if same {
		t.Errorf("streams 'a' and 'b' are identical")
	}
	// Same seed and label must reproduce.
	c := NewRNG(1, "a")
	d := NewRNG(1, "a")
	for i := 0; i < 10; i++ {
		if c.Float64() != d.Float64() {
			t.Fatalf("same stream not reproducible")
		}
	}
}

func TestHistogramBasics(t *testing.T) {
	h, err := NewHistogram(map[string]float64{"inv": 2, "nand2": 1, "nor2": 1})
	if err != nil {
		t.Fatalf("NewHistogram: %v", err)
	}
	if h.Len() != 3 {
		t.Errorf("Len = %d", h.Len())
	}
	if p := h.Prob("inv"); p != 0.5 {
		t.Errorf("P(inv) = %g, want 0.5", p)
	}
	if p := h.Prob("absent"); p != 0 {
		t.Errorf("P(absent) = %g, want 0", p)
	}
	sum := 0.0
	for _, l := range h.Labels() {
		sum += h.Prob(l)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("probabilities sum to %g", sum)
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(nil); err == nil {
		t.Errorf("expected error on empty histogram")
	}
	if _, err := NewHistogram(map[string]float64{"a": -1}); err == nil {
		t.Errorf("expected error on negative weight")
	}
	if _, err := NewHistogram(map[string]float64{"a": 0}); err == nil {
		t.Errorf("expected error on zero total")
	}
	if _, err := FromCounts(map[string]int{"a": -1}); err == nil {
		t.Errorf("expected error on negative count")
	}
}

func TestHistogramSampling(t *testing.T) {
	h, _ := NewHistogram(map[string]float64{"x": 3, "y": 1})
	rng := NewRNG(9, "hist")
	counts := map[string]int{}
	for i := 0; i < 40000; i++ {
		counts[h.Sample(rng)]++
	}
	fx := float64(counts["x"]) / 40000
	if math.Abs(fx-0.75) > 0.02 {
		t.Errorf("empirical P(x) = %g, want ≈0.75", fx)
	}
	// Property: empirical distribution converges (TV distance small).
	emp, err := FromCounts(counts)
	if err != nil {
		t.Fatal(err)
	}
	if d := TotalVariationDistance(h, emp); d > 0.02 {
		t.Errorf("TV distance = %g too large", d)
	}
}

func TestTotalVariationDistance(t *testing.T) {
	a, _ := NewHistogram(map[string]float64{"x": 1})
	b, _ := NewHistogram(map[string]float64{"y": 1})
	if d := TotalVariationDistance(a, b); d != 1 {
		t.Errorf("disjoint TV = %g, want 1", d)
	}
	if d := TotalVariationDistance(a, a); d != 0 {
		t.Errorf("self TV = %g, want 0", d)
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestQuantileProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := NewRNG(seed, "quantile")
		n := 2 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		min, max := MinMax(xs)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(xs, q)
			if v < prev || v < min-1e-12 || v > max+1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSlopeLogLog(t *testing.T) {
	// Exact power law y = 3·x^(-1/2) must recover the slope to machine
	// precision.
	xs := []float64{128, 512, 2048}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * math.Pow(x, -0.5)
	}
	if got := SlopeLogLog(xs, ys); math.Abs(got+0.5) > 1e-12 {
		t.Errorf("SlopeLogLog = %g, want -0.5", got)
	}
	for i, x := range xs {
		ys[i] = 0.7 * math.Pow(x, -1)
	}
	if got := SlopeLogLog(xs, ys); math.Abs(got+1) > 1e-12 {
		t.Errorf("SlopeLogLog = %g, want -1", got)
	}
	// Non-positive coordinates have no logarithm: NaN, not a panic.
	if got := SlopeLogLog([]float64{1, 2}, []float64{1, 0}); !math.IsNaN(got) {
		t.Errorf("SlopeLogLog with zero y = %g, want NaN", got)
	}
	if got := SlopeLogLog([]float64{2, 2}, []float64{1, 2}); !math.IsNaN(got) {
		t.Errorf("SlopeLogLog with degenerate x = %g, want NaN", got)
	}
	for _, bad := range [][2][]float64{
		{{1, 2}, {1}},
		{{1}, {1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SlopeLogLog(%v, %v) must panic", bad[0], bad[1])
				}
			}()
			SlopeLogLog(bad[0], bad[1])
		}()
	}
}
