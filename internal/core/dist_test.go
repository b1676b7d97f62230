package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestDistributionMatchesMoments(t *testing.T) {
	d, err := NewDistribution(2e-3, 5e-4)
	if err != nil {
		t.Fatal(err)
	}
	// Median below mean (right-skewed lognormal).
	med := d.Quantile(0.5)
	if !(med < d.Mean) {
		t.Errorf("median %g not below mean %g", med, d.Mean)
	}
	// Quantiles monotone.
	prev := 0.0
	for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99} {
		v := d.Quantile(q)
		if v <= prev {
			t.Fatalf("quantiles not monotone at q=%g", q)
		}
		prev = v
	}
	// CDF(Quantile(q)) = q.
	for _, q := range []float64{0.05, 0.5, 0.95} {
		if got := d.CDF(d.Quantile(q)); math.Abs(got-q) > 1e-9 {
			t.Errorf("CDF∘Quantile(%g) = %g", q, got)
		}
	}
	if d.CDF(0) != 0 || d.CDF(-1) != 0 {
		t.Errorf("CDF must vanish for non-positive leakage")
	}
	if !strings.Contains(d.String(), "lognormal") {
		t.Errorf("String() = %q", d.String())
	}
}

func TestDistributionDegenerate(t *testing.T) {
	d, err := NewDistribution(1e-3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Quantile(0.01) != 1e-3 || d.Quantile(0.99) != 1e-3 {
		t.Errorf("zero-σ distribution should be a point mass")
	}
	if d.CDF(0.5e-3) != 0 || d.CDF(2e-3) != 1 {
		t.Errorf("point-mass CDF wrong")
	}
	if _, err := NewDistribution(-1, 1); err == nil {
		t.Errorf("negative mean accepted")
	}
}

func TestYieldBudget(t *testing.T) {
	d, _ := NewDistribution(1e-2, 3e-3)
	b, err := d.YieldBudget(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.CDF(b); math.Abs(got-0.95) > 1e-9 {
		t.Errorf("yield at budget = %g, want 0.95", got)
	}
	for _, y := range []float64{0, 1, -1, 2} {
		if _, err := d.YieldBudget(y); err == nil {
			t.Errorf("yield %g accepted", y)
		}
	}
}

func TestDistributionOfResult(t *testing.T) {
	m := newTestModel(t, 1024, Analytic)
	res, err := m.EstimateLinear()
	if err != nil {
		t.Fatal(err)
	}
	d, err := DistributionOf(res)
	if err != nil {
		t.Fatal(err)
	}
	if d.Mean != res.Mean || d.Std != res.Std {
		t.Errorf("moments not carried over")
	}
	// The 3σ corner should correspond to a high quantile of the matched
	// lognormal (between p97 and p99.99 for moderate CV).
	corner := res.Mean + 3*res.Std
	p := d.CDF(corner)
	if p < 0.97 || p >= 1 {
		t.Errorf("3σ corner at quantile %g", p)
	}
}

// Property: for any positive (mean, std) the matched lognormal returns the
// same first two moments via its analytic formulas.
func TestDistributionMomentProperty(t *testing.T) {
	f := func(a, b float64) bool {
		mean := 1e-6 * (1 + math.Abs(math.Mod(a, 100)))
		std := mean * 0.01 * (1 + math.Abs(math.Mod(b, 50)))
		d, err := NewDistribution(mean, std)
		if err != nil {
			return false
		}
		// Verify via quantile integration: E[X] = ∫₀¹ Q(u) du (coarse
		// midpoint rule — the identity holds exactly; tolerance covers
		// discretization).
		n := 4000
		sum := 0.0
		for i := 0; i < n; i++ {
			u := (float64(i) + 0.5) / float64(n)
			sum += d.Quantile(u)
		}
		got := sum / float64(n)
		return math.Abs(got-mean)/mean < 0.02
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBreakdownLinear(t *testing.T) {
	m := newTestModel(t, 1024, Analytic)
	bd, err := m.BreakdownLinear()
	if err != nil {
		t.Fatal(err)
	}
	// Components must be non-negative and sum to the total.
	if bd.Independent < 0 || bd.D2DFloor < 0 || bd.WIDCorr < 0 {
		t.Fatalf("negative component: %+v", bd)
	}
	sum := bd.Independent + bd.D2DFloor + bd.WIDCorr
	if math.Abs(sum-bd.Total)/bd.Total > 1e-9 {
		t.Errorf("components sum to %g, total %g", sum, bd.Total)
	}
	i, fl, w := bd.Fractions()
	if math.Abs(i+fl+w-1) > 1e-9 {
		t.Errorf("fractions sum to %g", i+fl+w)
	}
	if !strings.Contains(bd.String(), "σ²") {
		t.Errorf("String() = %q", bd.String())
	}
	// At n=1024 with strong correlation the correlated parts dominate.
	if i > 0.5 {
		t.Errorf("independent fraction %.2f implausibly large", i)
	}
	// WID-only process ⇒ no floor.
	mWID, err := NewModel(testLib(t), testProcess().AllWID(), squareSpec(t, 1024), Analytic)
	if err != nil {
		t.Fatal(err)
	}
	bdWID, err := mWID.BreakdownLinear()
	if err != nil {
		t.Fatal(err)
	}
	if bdWID.D2DFloor != 0 {
		t.Errorf("WID-only floor = %g, want 0", bdWID.D2DFloor)
	}
	// Zero-variance edge: fractions of an empty breakdown are zeros.
	var empty VarianceBreakdown
	if a, b, c := empty.Fractions(); a != 0 || b != 0 || c != 0 {
		t.Errorf("empty fractions: %g %g %g", a, b, c)
	}
}

// Property: the breakdown total equals EstimateLinear's variance for
// several sizes and modes.
func TestBreakdownConsistentWithEstimate(t *testing.T) {
	for _, mode := range []Mode{Analytic, MCSimplified, AnalyticSimplified} {
		for _, n := range []int{64, 400} {
			m := newTestModel(t, n, mode)
			res, err := m.EstimateLinear()
			if err != nil {
				t.Fatal(err)
			}
			bd, err := m.BreakdownLinear()
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(bd.Total-res.Std*res.Std)/(res.Std*res.Std) > 1e-12 {
				t.Errorf("mode %v n=%d: breakdown total %g vs estimate %g",
					mode, n, bd.Total, res.Std*res.Std)
			}
		}
	}
}
