package core

import (
	"fmt"
	"math"

	"leakest/internal/randvar"
)

// Distribution is a two-moment lognormal picture of the full-chip leakage:
// the paper's estimators deliver (mean, σ); matching a lognormal to them
// (the Wilkinson/Fenton approximation for sums of correlated lognormals)
// yields quantiles, exceedance probabilities and leakage-yield curves. The
// approximation is validated against the full-chip Monte Carlo in the
// chipmc tests.
type Distribution struct {
	// Mean and Std are the matched moments in amperes.
	Mean, Std float64
	// mu and sigma are the log-domain lognormal parameters.
	mu, sigma float64
}

// NewDistribution matches a lognormal to the given full-chip leakage mean
// and standard deviation.
func NewDistribution(mean, std float64) (Distribution, error) {
	mu, sigma, err := randvar.LogNormalFromMoments(mean, std)
	if err != nil {
		return Distribution{}, fmt.Errorf("core: %w", err)
	}
	return Distribution{Mean: mean, Std: std, mu: mu, sigma: sigma}, nil
}

// DistributionOf matches a lognormal to an estimation result.
func DistributionOf(r Result) (Distribution, error) {
	return NewDistribution(r.Mean, r.Std)
}

// Quantile returns the leakage value not exceeded with probability q.
func (d Distribution) Quantile(q float64) float64 {
	if d.sigma == 0 {
		return d.Mean
	}
	return math.Exp(d.mu + d.sigma*randvar.NormalQuantile(q))
}

// CDF returns P(leakage ≤ x).
func (d Distribution) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if d.sigma == 0 {
		if x < d.Mean {
			return 0
		}
		return 1
	}
	return randvar.NormalCDF(math.Log(x), d.mu, d.sigma)
}

// YieldBudget returns the leakage budget that yields the requested fraction
// of dies: the smallest budget B with P(leakage ≤ B) ≥ yield.
func (d Distribution) YieldBudget(yield float64) (float64, error) {
	if yield <= 0 || yield >= 1 {
		return 0, fmt.Errorf("core: yield %g outside (0, 1)", yield)
	}
	return d.Quantile(yield), nil
}

// String summarizes the distribution.
func (d Distribution) String() string {
	return fmt.Sprintf("lognormal(mean=%.4g A, std=%.4g A, median=%.4g A, p99=%.4g A)",
		d.Mean, d.Std, d.Quantile(0.5), d.Quantile(0.99))
}

// VarianceBreakdown decomposes the full-chip leakage variance of the
// linear-time estimate into its physical sources:
//
//   - Independent: the n·σ²_XI diagonal (gate-choice and local randomness);
//   - D2DFloor: the fully shared die-to-die component (covariance floor
//     acting over all pairs);
//   - WIDCorr: the distance-decaying within-die correlation in between.
//
// The fractions explain *why* the naive estimator fails: for large n the
// floor and WID terms, growing ~n², dwarf the ~n independent term.
type VarianceBreakdown struct {
	Total       float64 // σ² in A²
	Independent float64
	D2DFloor    float64
	WIDCorr     float64
}

// Fractions returns the three components normalized by the total.
func (v VarianceBreakdown) Fractions() (indep, floor, wid float64) {
	if v.Total == 0 {
		return 0, 0, 0
	}
	return v.Independent / v.Total, v.D2DFloor / v.Total, v.WIDCorr / v.Total
}

// String renders the breakdown compactly.
func (v VarianceBreakdown) String() string {
	i, fl, w := v.Fractions()
	return fmt.Sprintf("σ²=%.4g A² (independent %.1f%%, D2D %.1f%%, WID %.1f%%)",
		v.Total, 100*i, 100*fl, 100*w)
}

// BreakdownLinear computes the variance decomposition using the same
// distance-histogram walk as EstimateLinear.
func (m *Model) BreakdownLinear() (VarianceBreakdown, error) {
	res, err := m.EstimateLinear()
	if err != nil {
		return VarianceBreakdown{}, err
	}
	k, cols := res.GridRows, res.GridCols
	s := k * cols
	dw := m.Spec.W / float64(cols)
	dh := m.Spec.H / float64(k)
	floorCov := m.CovAtCorr(m.Proc.CorrFloor())
	offWID, offFloor := 0.0, 0.0
	for i := 0; i <= cols-1; i++ {
		for j := 0; j <= k-1; j++ {
			if i == 0 && j == 0 {
				continue
			}
			d := math.Hypot(float64(i)*dw, float64(j)*dh)
			cov := m.CovAtDist(d)
			mult := float64((cols - i) * (k - j))
			count := 4.0
			if i == 0 || j == 0 {
				count = 2
			}
			fl := floorCov
			if cov < fl {
				fl = cov
			}
			offFloor += count * mult * fl
			offWID += count * mult * (cov - fl)
		}
	}
	n := float64(m.Spec.N)
	if s != m.Spec.N {
		occ := n * (n - 1) / (float64(s) * float64(s-1))
		offFloor *= occ
		offWID *= occ
	}
	return VarianceBreakdown{
		Total:       res.Std * res.Std,
		Independent: n * m.variance,
		D2DFloor:    offFloor,
		WIDCorr:     offWID,
	}, nil
}
