// Package quad provides the numerical-integration and interpolation
// routines used by the constant-time leakage estimators: Gauss–Legendre
// panels, tensor-product 2-D integration (Eq. 20 of the paper), and natural
// cubic splines for tabulated functions.
package quad

import "fmt"

// Func1D is a scalar function of one variable.
type Func1D func(x float64) float64

// Func2D is a scalar function of two variables.
type Func2D func(x, y float64) float64

// gauss-Legendre abscissas/weights on [-1,1], 16 points (symmetric halves).
var glx = []float64{
	0.0950125098376374, 0.2816035507792589, 0.4580167776572274, 0.6178762444026438,
	0.7554044083550030, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
}

var glw = []float64{
	0.1894506104550685, 0.1826034150449236, 0.1691565193950025, 0.1495959888165767,
	0.1246289712555339, 0.0951585116824928, 0.0622535239386479, 0.0271524594117541,
}

// GaussLegendre16 integrates f over [a, b] with a single 16-point
// Gauss–Legendre rule — exact for polynomials up to degree 31.
func GaussLegendre16(f Func1D, a, b float64) float64 {
	c := (a + b) / 2
	h := (b - a) / 2
	s := 0.0
	for i := range glx {
		s += glw[i] * (f(c+h*glx[i]) + f(c-h*glx[i]))
	}
	return s * h
}

// GaussLegendrePanels integrates f over [a, b] split into n equal panels,
// each handled by the 16-point rule.
func GaussLegendrePanels(f Func1D, a, b float64, n int) float64 {
	if n < 1 {
		n = 1
	}
	h := (b - a) / float64(n)
	s := 0.0
	for i := 0; i < n; i++ {
		s += GaussLegendre16(f, a+float64(i)*h, a+float64(i+1)*h)
	}
	return s
}

// Integrate2D integrates f over the rectangle [ax,bx]×[ay,by] using a
// tensor-product of panelled 16-point Gauss–Legendre rules with nx×ny
// panels. It is the workhorse for Eq. (20), whose integrand (a product of
// tent functions and a smooth correlation) is well resolved by moderate
// panel counts; accuracy is validated against the exact linear-time sum in
// the estimator tests.
func Integrate2D(f Func2D, ax, bx, ay, by float64, nx, ny int) float64 {
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	outer := func(x float64) float64 {
		return GaussLegendrePanels(func(y float64) float64 { return f(x, y) }, ay, by, ny)
	}
	return GaussLegendrePanels(outer, ax, bx, nx)
}

// Spline is a natural cubic spline through a set of strictly increasing
// knots. Evaluation outside the knot range is clamped linear extrapolation
// from the boundary derivative.
type Spline struct {
	xs, ys []float64
	y2     []float64 // second derivatives at knots
}

// NewSpline builds a natural cubic spline. xs must be strictly increasing
// and len(xs) == len(ys) ≥ 2.
func NewSpline(xs, ys []float64) (*Spline, error) {
	n := len(xs)
	if n != len(ys) {
		return nil, fmt.Errorf("quad: spline length mismatch %d vs %d", n, len(ys))
	}
	if n < 2 {
		return nil, fmt.Errorf("quad: spline needs ≥2 knots, got %d", n)
	}
	for i := 1; i < n; i++ {
		if xs[i] <= xs[i-1] {
			return nil, fmt.Errorf("quad: spline knots not strictly increasing at %d (%g ≤ %g)",
				i, xs[i], xs[i-1])
		}
	}
	s := &Spline{
		xs: append([]float64(nil), xs...),
		ys: append([]float64(nil), ys...),
		y2: make([]float64, n),
	}
	// Tridiagonal solve for natural boundary conditions (y2[0]=y2[n-1]=0).
	u := make([]float64, n)
	for i := 1; i < n-1; i++ {
		sig := (xs[i] - xs[i-1]) / (xs[i+1] - xs[i-1])
		p := sig*s.y2[i-1] + 2
		s.y2[i] = (sig - 1) / p
		u[i] = (ys[i+1]-ys[i])/(xs[i+1]-xs[i]) - (ys[i]-ys[i-1])/(xs[i]-xs[i-1])
		u[i] = (6*u[i]/(xs[i+1]-xs[i-1]) - sig*u[i-1]) / p
	}
	for i := n - 2; i >= 0; i-- {
		s.y2[i] = s.y2[i]*s.y2[i+1] + u[i]
	}
	return s, nil
}

// Eval evaluates the spline at x. Outside the knot range, the boundary cubic
// segment's linear tangent is used (clamped extrapolation).
func (s *Spline) Eval(x float64) float64 {
	// An unlocated segment makes EvalSegment run Locate itself, which keeps
	// Eval small enough to inline: a call to Eval costs one call, not two,
	// on the hot F(ρ) and leakage-curve lookups.
	return s.EvalSegment(Segment{lo: unlocated, x: x})
}

// Segment is where x lies among a spline's knots. Splines with identical
// knots share it, so a caller evaluating many such splines at one x
// locates the segment once and calls EvalSegment on each.
type Segment struct {
	// lo is the knot starting x's interval; −1 below the first knot, n−1
	// at or above the last one (linear extrapolation), and unlocated when
	// the segment still has to be found.
	lo int
	x  float64
}

const unlocated = -2

// Locate finds the segment of x by binary search over the knots. It stays
// small enough for the compiler to inline into EvalSegment.
func (s *Spline) Locate(x float64) Segment {
	xs := s.xs
	if x <= xs[0] {
		return Segment{lo: -1, x: x}
	}
	lo, hi := 0, len(xs)-1
	if x >= xs[hi] {
		lo = hi // skips the search
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if xs[mid] > x {
			hi = mid
		} else {
			lo = mid
		}
	}
	return Segment{lo: lo, x: x}
}

// EvalSegment evaluates the spline on a segment located on a spline with
// the same knots (this one or any other with bitwise the same knots).
// Outside the knot range, the boundary cubic segment's linear tangent is
// used (clamped extrapolation).
func (s *Spline) EvalSegment(g Segment) float64 {
	if g.lo == unlocated {
		g = s.Locate(g.x)
	}
	n := len(s.xs)
	lo, x := g.lo, g.x
	if lo < 0 {
		d := s.derivAtKnot(0)
		return s.ys[0] + d*(x-s.xs[0])
	}
	if lo == n-1 {
		d := s.derivAtKnot(n - 1)
		return s.ys[n-1] + d*(x-s.xs[n-1])
	}
	hi := lo + 1
	h := s.xs[hi] - s.xs[lo]
	a := (s.xs[hi] - x) / h
	b := (x - s.xs[lo]) / h
	return a*s.ys[lo] + b*s.ys[hi] +
		((a*a*a-a)*s.y2[lo]+(b*b*b-b)*s.y2[hi])*h*h/6
}

// derivAtKnot returns the spline first derivative at knot i (i = 0 or n−1).
func (s *Spline) derivAtKnot(i int) float64 {
	n := len(s.xs)
	if i == 0 {
		h := s.xs[1] - s.xs[0]
		return (s.ys[1]-s.ys[0])/h - h/6*(2*s.y2[0]+s.y2[1])
	}
	h := s.xs[n-1] - s.xs[n-2]
	return (s.ys[n-1]-s.ys[n-2])/h + h/6*(s.y2[n-2]+2*s.y2[n-1])
}

// Min returns the first knot position.
func (s *Spline) Min() float64 { return s.xs[0] }

// Linspace returns n evenly spaced points from a to b inclusive.
func Linspace(a, b float64, n int) []float64 {
	if n < 2 {
		return []float64{a}
	}
	out := make([]float64, n)
	step := (b - a) / float64(n-1)
	for i := range out {
		out[i] = a + float64(i)*step
	}
	out[n-1] = b
	return out
}
