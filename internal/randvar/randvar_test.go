package randvar

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"leakest/internal/linalg"
	"leakest/internal/quad"
	"leakest/internal/stats"
)

// normalPDF returns the density of N(mu, sigma²) at x: the integrand of the
// quadrature references below.
func normalPDF(x, mu, sigma float64) float64 {
	z := (x - mu) / sigma
	return math.Exp(-0.5*z*z) / (sigma * math.Sqrt(2*math.Pi))
}

// adaptiveSimpson integrates f over [a, b] to the absolute tolerance tol by
// adaptive Simpson quadrature with Richardson correction, an integrator
// independent of the closed forms under test. The interval is pre-split
// into 16 panels so that narrow features well inside [a, b] cannot be
// missed by the coarse sampling of a single top-level panel.
func adaptiveSimpson(f func(float64) float64, a, b, tol float64) float64 {
	const prePanels, maxDepth = 16, 30
	simpson := func(a, b, fa, fm, fb float64) float64 { return (b - a) / 6 * (fa + 4*fm + fb) }
	var aux func(a, b, fa, fm, fb, whole, tol float64, depth int) float64
	aux = func(a, b, fa, fm, fb, whole, tol float64, depth int) float64 {
		m := (a + b) / 2
		flm, frm := f((a+m)/2), f((m+b)/2)
		left, right := simpson(a, m, fa, flm, fm), simpson(m, b, fm, frm, fb)
		if depth <= 0 || math.Abs(left+right-whole) <= 15*tol {
			return left + right + (left+right-whole)/15
		}
		return aux(a, m, fa, flm, fm, left, tol/2, depth-1) + aux(m, b, fm, frm, fb, right, tol/2, depth-1)
	}
	h := (b - a) / prePanels
	total := 0.0
	for i := 0; i < prePanels; i++ {
		pa := a + float64(i)*h
		pb := pa + h
		fa, fm, fb := f(pa), f((pa+pb)/2), f(pb)
		total += aux(pa, pb, fa, fm, fb, simpson(pa, pb, fa, fm, fb), tol/prePanels, maxDepth)
	}
	return total
}

// covariance returns the unbiased sample covariance of paired samples.
func covariance(xs, ys []float64) float64 {
	mx, my := stats.Mean(xs), stats.Mean(ys)
	s := 0.0
	for i := range xs {
		s += (xs[i] - mx) * (ys[i] - my)
	}
	return s / float64(len(xs)-1)
}

// correlation returns the Pearson correlation coefficient of paired samples.
func correlation(xs, ys []float64) float64 {
	return covariance(xs, ys) / (stats.StdDev(xs) * stats.StdDev(ys))
}

func TestNormalPDFCDF(t *testing.T) {
	// Standard normal at 0.
	if got := normalPDF(0, 0, 1); math.Abs(got-1/math.Sqrt(2*math.Pi)) > 1e-14 {
		t.Errorf("pdf(0) = %g", got)
	}
	if got := NormalCDF(0, 0, 1); math.Abs(got-0.5) > 1e-14 {
		t.Errorf("cdf(0) = %g", got)
	}
	if got := NormalCDF(1.96, 0, 1); math.Abs(got-0.9750021) > 1e-5 {
		t.Errorf("cdf(1.96) = %g", got)
	}
	// PDF integrates to CDF difference.
	got := adaptiveSimpson(func(x float64) float64 { return normalPDF(x, 2, 3) }, -10, 5, 1e-12)
	want := NormalCDF(5, 2, 3) - NormalCDF(-10, 2, 3)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("∫pdf = %g, want %g", got, want)
	}
}

func TestLogNormalMeanFactor(t *testing.T) {
	// E[exp(kZ)] for Z~N(0,σ²) is exp(k²σ²/2); cross-check by quadrature.
	k, sigma := 2.5, 0.04
	want := adaptiveSimpson(func(z float64) float64 {
		return math.Exp(k*z) * normalPDF(z, 0, sigma)
	}, -10*sigma, 10*sigma, 1e-14)
	if got := LogNormalMeanFactor(k, sigma); math.Abs(got-want) > 1e-9 {
		t.Errorf("mean factor = %.12g, want %.12g", got, want)
	}
	if got := LogNormalMeanFactor(0, 1); got != 1 {
		t.Errorf("k=0 factor = %g, want 1", got)
	}
}

// numericExpMoment computes E[exp(cL²+bL)] for L~N(mu,σ²) by quadrature.
func numericExpMoment(b, c, mu, sigma float64) float64 {
	return adaptiveSimpson(func(l float64) float64 {
		return math.Exp(c*l*l+b*l) * normalPDF(l, mu, sigma)
	}, mu-12*sigma, mu+12*sigma, 1e-14)
}

func TestGaussExpMoment1D(t *testing.T) {
	cases := []struct{ b, c, mu, sigma float64 }{
		{0, 0, 0, 1},
		{1.5, 0, 0.2, 0.5},
		{-3, 0.4, 1, 0.3},
		{-80, 100, 0.09, 0.0045}, // leakage-like scale: L≈90nm in µm units
		{2, -1, 0, 1},            // negative curvature always converges
	}
	for _, cse := range cases {
		got, err := GaussExpMoment1D(cse.b, cse.c, cse.mu, cse.sigma)
		if err != nil {
			t.Fatalf("case %+v: %v", cse, err)
		}
		want := numericExpMoment(cse.b, cse.c, cse.mu, cse.sigma)
		if math.Abs(got-want) > 1e-8*(1+math.Abs(want)) {
			t.Errorf("case %+v: got %.12g, want %.12g", cse, got, want)
		}
	}
}

func TestGaussExpMoment1DDiverges(t *testing.T) {
	// c·σ² = 0.5 ⇒ 1−2cσ² = 0: moment does not exist.
	_, err := GaussExpMoment1D(0, 0.5, 0, 1)
	if !errors.Is(err, ErrDiverges) {
		t.Errorf("expected ErrDiverges, got %v", err)
	}
}

func TestGaussQuadExp2DAgainstQuadrature(t *testing.T) {
	// Cross-check the closed form against 2-D numerical integration on a
	// few leakage-like parameter sets.
	cases := []struct{ a1, a2, b1, b2, m1, m2, s1, s2, rho float64 }{
		{0, 0, 1, -1, 0, 0, 1, 1, 0.5},
		{0.3, -0.2, 0.5, 1, 0.1, -0.3, 0.7, 0.9, -0.6},
		{2, 1, -1, -2, 0.5, 0.5, 0.3, 0.25, 0.9},
		{0, 0, 0, 0, 1, 2, 1, 1, 0.0},
	}
	for _, c := range cases {
		got, err := GaussQuadExp2D(c.a1, c.a2, c.b1, c.b2, c.m1, c.m2, c.s1, c.s2, c.rho)
		if err != nil {
			t.Fatalf("case %+v: %v", c, err)
		}
		// Numeric: integrate exp(a1x²+a2y²+b1x+b2y)·N2(x,y) over a wide box.
		det := c.s1 * c.s1 * c.s2 * c.s2 * (1 - c.rho*c.rho)
		norm := 1 / (2 * math.Pi * math.Sqrt(det))
		f := func(x, y float64) float64 {
			dx, dy := x-c.m1, y-c.m2
			q := (dx*dx/(c.s1*c.s1) - 2*c.rho*dx*dy/(c.s1*c.s2) + dy*dy/(c.s2*c.s2)) / (1 - c.rho*c.rho)
			return math.Exp(c.a1*x*x+c.a2*y*y+c.b1*x+c.b2*y-0.5*q) * norm
		}
		want := quad.Integrate2D(f,
			c.m1-10*c.s1, c.m1+10*c.s1, c.m2-10*c.s2, c.m2+10*c.s2, 24, 24)
		if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
			t.Errorf("case %+v: got %.10g, want %.10g", c, got, want)
		}
	}
}

func TestGaussQuadExp2DConsistentWith1D(t *testing.T) {
	// At ρ→0 the 2-D moment factorizes into the product of 1-D moments.
	a1, a2, b1, b2 := 0.3, -0.1, -2.0, 1.0
	mu, s := 0.09, 0.005
	m2d, err := GaussQuadExp2D(a1, a2, b1, b2, mu, mu, s, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := GaussExpMoment1D(b1, a1, mu, s)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := GaussExpMoment1D(b2, a2, mu, s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m2d-m1*m2) > 1e-10*(1+m1*m2) {
		t.Errorf("ρ=0: %.12g != %.12g·%.12g", m2d, m1, m2)
	}
}

func TestGaussQuadExp2DErrors(t *testing.T) {
	if _, err := GaussQuadExp2D(0, 0, 0, 0, 0, 0, -1, 1, 0); err == nil {
		t.Errorf("expected error for negative sigma")
	}
	if _, err := GaussQuadExp2D(0, 0, 0, 0, 0, 0, 1, 1, 1); err == nil {
		t.Errorf("expected error for |rho| = 1")
	}
	if _, err := GaussQuadExp2D(10, 10, 0, 0, 0, 0, 1, 1, 0); !errors.Is(err, ErrDiverges) {
		t.Errorf("expected ErrDiverges for huge quadratic, got %v", err)
	}
}

func TestMGFAgainstNumericMoments(t *testing.T) {
	// For several (a,b,c) triplets, Eqs. (1)–(5) must agree with the direct
	// quadrature of a·e^(bL+cL²) and its square.
	mu, sigma := 0.09, 0.0045 // 90 nm ±5 % (in µm)
	cases := []struct{ a, b, c float64 }{
		{1e-8, -60, 0},
		{1e-8, -60, 150},
		{3e-9, -45, -200},
		{5e-7, -100, 400},
	}
	for _, cse := range cases {
		p, err := NewMGFParams(cse.a, cse.b, cse.c, mu, sigma)
		if err != nil {
			t.Fatalf("params %+v: %v", cse, err)
		}
		mean, std, err := p.Moments()
		if err != nil {
			t.Fatalf("moments %+v: %v", cse, err)
		}
		wantMean := cse.a * numericExpMoment(cse.b, cse.c, mu, sigma)
		wantM2 := cse.a * cse.a * numericExpMoment(2*cse.b, 2*cse.c, mu, sigma)
		wantStd := math.Sqrt(wantM2 - wantMean*wantMean)
		if math.Abs(mean-wantMean) > 1e-8*wantMean {
			t.Errorf("case %+v: mean %.10g, want %.10g", cse, mean, wantMean)
		}
		if math.Abs(std-wantStd) > 1e-6*wantStd {
			t.Errorf("case %+v: std %.10g, want %.10g", cse, std, wantStd)
		}
	}
}

func TestMGFDivergence(t *testing.T) {
	// c·σ² must satisfy 1−2K₁t>0 at t=2, i.e. cσ² < 1/4.
	p, err := NewMGFParams(1, 0, 0.3, 0, 1) // K1 = 0.3 ⇒ t=2 gives 1-1.2 < 0
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.MGF(2); !errors.Is(err, ErrDiverges) {
		t.Errorf("expected ErrDiverges at t=2, got %v", err)
	}
	if _, _, err := p.Moments(); err == nil {
		t.Errorf("Moments should propagate divergence")
	}
}

func TestNewMGFParamsErrors(t *testing.T) {
	if _, err := NewMGFParams(-1, 0, 0, 0, 1); err == nil {
		t.Errorf("expected error for a ≤ 0")
	}
	if _, err := NewMGFParams(1, 0, 0, 0, 0); err == nil {
		t.Errorf("expected error for sigma ≤ 0")
	}
}

// Property: for random well-posed triplets, the MGF moments match MC
// sampling of X = a·e^(bL+cL²) to within sampling error.
func TestMGFPropertyVsMC(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed, "mgf-mc")
		mu, sigma := 0.09, 0.0045
		b := -40 - 40*rng.Float64()
		c := (rng.Float64() - 0.3) * 2000
		if c*sigma*sigma >= 0.2 { // keep comfortably inside convergence
			c = 0.2 / (sigma * sigma) * 0.5
		}
		a := math.Exp(-18 + 2*rng.NormFloat64())
		p, err := NewMGFParams(a, b, c, mu, sigma)
		if err != nil {
			return false
		}
		mean, std, err := p.Moments()
		if err != nil {
			return false
		}
		var run stats.Running
		for i := 0; i < 20000; i++ {
			l := mu + sigma*rng.NormFloat64()
			run.Push(a * math.Exp(b*l+c*l*l))
		}
		// 5σ/√N band on the mean estimate.
		tol := 5 * std / math.Sqrt(20000)
		return math.Abs(run.Mean()-mean) < tol+1e-12*mean
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestMVNSampler(t *testing.T) {
	// 3-D covariance with strong structure; verify sample moments.
	cov := linalg.NewMatrixFrom(3, 3, []float64{
		4, 2, 1,
		2, 3, 0.5,
		1, 0.5, 2,
	})
	s, err := NewMVNSampler(cov)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(5, "mvn")
	n := 60000
	sums := make([]float64, 3)
	prods := linalg.NewMatrix(3, 3)
	x, z := make([]float64, 3), make([]float64, 3)
	for i := 0; i < n; i++ {
		s.SamplePartialInto(rng, z, x, 0)
		for j := 0; j < 3; j++ {
			sums[j] += x[j]
			for k := 0; k < 3; k++ {
				prods.Add(j, k, x[j]*x[k])
			}
		}
	}
	for j := 0; j < 3; j++ {
		m := sums[j] / float64(n)
		if math.Abs(m) > 0.05 {
			t.Errorf("mean[%d] = %g, want 0", j, m)
		}
		for k := 0; k < 3; k++ {
			c := prods.At(j, k)/float64(n) - (sums[j]/float64(n))*(sums[k]/float64(n))
			if math.Abs(c-cov.At(j, k)) > 0.1 {
				t.Errorf("cov[%d][%d] = %g, want %g", j, k, c, cov.At(j, k))
			}
		}
	}
}

func TestMVNSamplerErrors(t *testing.T) {
	cov := linalg.NewMatrix(2, 3)
	if _, err := NewMVNSampler(cov); err == nil {
		t.Errorf("expected non-square covariance error")
	}
	// Indefinite covariance must be rejected.
	bad := linalg.NewMatrixFrom(2, 2, []float64{1, 3, 3, 1})
	if _, err := NewMVNSampler(bad); err == nil {
		t.Errorf("expected factorization error")
	}
}

func TestBivariateNormal(t *testing.T) {
	rng := stats.NewRNG(11, "bvn")
	n := 80000
	xs := make([]float64, n)
	ys := make([]float64, n)
	rho := 0.7
	for i := 0; i < n; i++ {
		xs[i], ys[i] = BivariateNormal(rng, 2, 3, -1, 0.5, rho)
	}
	if m := stats.Mean(xs); math.Abs(m-2) > 0.05 {
		t.Errorf("mean x = %g", m)
	}
	if m := stats.Mean(ys); math.Abs(m+1) > 0.02 {
		t.Errorf("mean y = %g", m)
	}
	if s := stats.StdDev(xs); math.Abs(s-3) > 0.05 {
		t.Errorf("std x = %g", s)
	}
	if r := correlation(xs, ys); math.Abs(r-rho) > 0.02 {
		t.Errorf("correlation = %g, want %g", r, rho)
	}
}
