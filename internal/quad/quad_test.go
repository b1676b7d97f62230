package quad

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGaussLegendre16(t *testing.T) {
	// Exact for polynomials up to degree 31.
	f := func(x float64) float64 { return math.Pow(x, 9) }
	got := GaussLegendre16(f, 0, 1)
	if math.Abs(got-0.1) > 1e-13 {
		t.Errorf("x^9: got %.15g, want 0.1", got)
	}
	got = GaussLegendrePanels(math.Cos, 0, math.Pi/2, 4)
	if math.Abs(got-1) > 1e-13 {
		t.Errorf("cos panels: got %.15g, want 1", got)
	}
	if got := GaussLegendrePanels(math.Cos, 0, 1, 0); math.Abs(got-math.Sin(1)) > 1e-12 {
		t.Errorf("n<1 clamped to 1 panel: got %g", got)
	}
}

func TestIntegrate2D(t *testing.T) {
	// ∫∫ x·y over [0,1]² = 1/4.
	got := Integrate2D(func(x, y float64) float64 { return x * y }, 0, 1, 0, 1, 2, 2)
	if math.Abs(got-0.25) > 1e-12 {
		t.Errorf("xy: got %.15g, want 0.25", got)
	}
	// ∫∫ exp(-(x²+y²)) over [-5,5]² = π·erf(5)² ≈ π.
	got = Integrate2D(func(x, y float64) float64 { return math.Exp(-x*x - y*y) },
		-5, 5, -5, 5, 8, 8)
	if math.Abs(got-math.Pi) > 1e-8 {
		t.Errorf("gaussian 2d: got %.12g, want π", got)
	}
	// Tent-function integrand, the exact shape of Eq. (20):
	// ∫₀ᵂ∫₀ᴴ (W−x)(H−y) dy dx = W²H²/4.
	W, H := 3.0, 2.0
	got = Integrate2D(func(x, y float64) float64 { return (W - x) * (H - y) },
		0, W, 0, H, 1, 1)
	if math.Abs(got-W*W*H*H/4) > 1e-10 {
		t.Errorf("tent: got %.12g, want %g", got, W*W*H*H/4)
	}
}

func TestSplineInterpolatesKnots(t *testing.T) {
	xs := Linspace(0, 10, 21)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Exp(-x / 3)
	}
	s, err := NewSpline(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		if got := s.Eval(x); math.Abs(got-ys[i]) > 1e-12 {
			t.Errorf("knot %d: got %g, want %g", i, got, ys[i])
		}
	}
	// Mid-knot accuracy for a smooth function. The natural boundary
	// condition limits accuracy in the first/last interval, so interior
	// points are held to a tighter tolerance than boundary ones.
	for x := 0.25; x < 10; x += 0.5 {
		want := math.Exp(-x / 3)
		tol := 1e-4
		if x < 1 || x > 9 {
			tol = 3e-3
		}
		if got := s.Eval(x); math.Abs(got-want) > tol {
			t.Errorf("x=%g: got %g, want %g", x, got, want)
		}
	}
	if s.Min() != 0 {
		t.Errorf("Min wrong: %g", s.Min())
	}
}

func TestSplineExtrapolationIsLinear(t *testing.T) {
	// For y = x the spline is exact and extrapolation continues the line.
	xs := []float64{0, 1, 2, 3}
	ys := []float64{0, 1, 2, 3}
	s, err := NewSpline(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Eval(-2); math.Abs(got-(-2)) > 1e-10 {
		t.Errorf("left extrapolation: got %g, want -2", got)
	}
	if got := s.Eval(5); math.Abs(got-5) > 1e-10 {
		t.Errorf("right extrapolation: got %g, want 5", got)
	}
}

func TestSplineErrors(t *testing.T) {
	if _, err := NewSpline([]float64{0, 1}, []float64{0}); err == nil {
		t.Errorf("expected length-mismatch error")
	}
	if _, err := NewSpline([]float64{0}, []float64{0}); err == nil {
		t.Errorf("expected too-few-knots error")
	}
	if _, err := NewSpline([]float64{0, 0}, []float64{1, 2}); err == nil {
		t.Errorf("expected non-increasing knots error")
	}
}

func TestLinspace(t *testing.T) {
	got := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Linspace[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if one := Linspace(3, 9, 1); len(one) != 1 || one[0] != 3 {
		t.Errorf("degenerate Linspace wrong: %v", one)
	}
}

// Property: Gauss–Legendre panels agree with the closed-form integral of
// smooth random-coefficient trig-polynomials.
func TestQuadratureAgreement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a0 := rng.NormFloat64()
		a1 := rng.NormFloat64()
		w := 1 + 3*rng.Float64()
		fn := func(x float64) float64 { return a0*math.Cos(w*x) + a1*x*x }
		lo, hi := -1.0, 2.0
		s1 := a0*(math.Sin(w*hi)-math.Sin(w*lo))/w + a1*(hi*hi*hi-lo*lo*lo)/3
		s2 := GaussLegendrePanels(fn, lo, hi, 8)
		return math.Abs(s1-s2) < 1e-9*(1+math.Abs(s1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: spline integrates to ≈ the analytic integral of the sampled
// function when knots are dense.
func TestSplineQuadratureConsistency(t *testing.T) {
	xs := Linspace(0, math.Pi, 60)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Sin(x)
	}
	s, err := NewSpline(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	got := GaussLegendrePanels(s.Eval, 0, math.Pi, len(xs)-1)
	if math.Abs(got-2) > 1e-5 {
		t.Errorf("∫spline(sin) = %.9g, want 2", got)
	}
}

// A Segment located on one spline must evaluate every spline with the same
// knots bit for bit as that spline's own Eval: at every knot, mid-segment,
// at both ends and outside the knot range (linear extrapolation).
func TestSegmentSharedEvalBitwise(t *testing.T) {
	xs := Linspace(0, 1, 33)
	mk := func(f func(float64) float64) *Spline {
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = f(x)
		}
		s, err := NewSpline(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	base := mk(func(x float64) float64 { return x })
	others := []*Spline{
		base,
		mk(func(x float64) float64 { return math.Exp(2*x) - 1 }),
		mk(func(x float64) float64 { return 1e-12 * x * x * math.Sin(5*x) }),
	}
	probes := []float64{0, 1, -0.5, -1e-300, 1 + 1e-15, 1.5, math.Inf(1)}
	for i := range xs {
		probes = append(probes, xs[i])
		if i+1 < len(xs) {
			probes = append(probes, (xs[i]+xs[i+1])/2, xs[i]+0.1*(xs[i+1]-xs[i]))
		}
	}
	for _, s := range others {
		for _, x := range probes {
			got, want := s.EvalSegment(base.Locate(x)), s.Eval(x)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("x=%v: shared segment %v, Eval %v", x, got, want)
			}
		}
	}
}
