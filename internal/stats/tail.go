package stats

import (
	"fmt"
	"math"
	"sort"
)

// This file holds the distribution-tail primitives behind chipmc's
// TailStats: multi-quantile extraction over a materialized trial set,
// exceedance (yield-at-spec) estimation with binomial standard errors, and
// the weighted variant used by the importance-sampled deep-tail estimator.
//
// Edge-case contract (regression-tested):
//   - empty input never panics: quantiles are NaN, exceedance is the
//     explicit no-data value (P and SE NaN, zero hits);
//   - one trial is a legal run: the quantile is that sample, the exceedance
//     is exactly 0 or 1 with zero SE;
//   - a spec exactly at a sample point counts that sample as NOT exceeding
//     (exceedance is strictly greater-than);
//   - all-exceed / none-exceed return exactly {1, 0} with SE exactly 0 —
//     never NaN from a negative rounding residue under the square root.

// quantileSorted evaluates the q-quantile of an ascending-sorted, non-empty
// sample by linear interpolation between order statistics — the estimator
// behind Quantile and Quantiles, factored out so multi-quantile callers
// sort once.
func quantileSorted(sorted []float64, q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %g out of [0,1]", q))
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Quantiles returns the qs-quantiles of xs, sorting one copy of the input
// once (Quantile re-sorts per call). Empty xs yields NaN at every requested
// probability; a probability outside [0,1] panics, matching Quantile.
func Quantiles(xs []float64, qs []float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		for i, q := range qs {
			if q < 0 || q > 1 {
				panic(fmt.Sprintf("stats: quantile %g out of [0,1]", q))
			}
			out[i] = math.NaN()
		}
		return out
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for i, q := range qs {
		out[i] = quantileSorted(sorted, q)
	}
	return out
}

// NormalizeQuantiles validates and canonicalizes a requested quantile list:
// every probability must be strictly inside (0, 1) and finite; duplicates
// are dropped and the result is ascending. A nil or empty list stays empty.
// The open interval is deliberate — P0 and P1 of a sample are its extremes,
// not distribution quantiles, and accepting them would hide caller bugs.
func NormalizeQuantiles(qs []float64) ([]float64, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	out := make([]float64, 0, len(qs))
	for _, q := range qs {
		if math.IsNaN(q) || q <= 0 || q >= 1 {
			return nil, fmt.Errorf("stats: quantile probability %g outside (0, 1)", q)
		}
		out = append(out, q)
	}
	sort.Float64s(out)
	dedup := out[:1]
	for _, q := range out[1:] {
		if q != dedup[len(dedup)-1] {
			dedup = append(dedup, q)
		}
	}
	return dedup, nil
}

// BinomialSE returns the binomial standard error sqrt(p(1−p)/n) of an
// exceedance proportion. It is exactly 0 at p ∈ {0, 1} (an observed-certain
// outcome has no binomial spread) and NaN when n ≤ 0 or p is outside [0, 1].
func BinomialSE(p float64, n int) float64 {
	if n <= 0 || math.IsNaN(p) || p < 0 || p > 1 {
		return math.NaN()
	}
	v := p * (1 - p)
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v / float64(n))
}

// Exceedance is a plain Monte-Carlo estimate of P[X > spec].
type Exceedance struct {
	// P is the estimated exceedance probability (hits/n); NaN when N is 0.
	P float64
	// SE is the binomial standard error; exactly 0 at P ∈ {0, 1}.
	SE float64
	// Hits counts samples strictly greater than the spec.
	Hits int
	// N is the sample count.
	N int
}

// ExceedanceOf counts the samples strictly above spec and returns the
// proportion with its binomial SE. Strictness matters at the edge case the
// regression suite pins: a spec exactly at a sample point does not count
// that sample as exceeding.
func ExceedanceOf(xs []float64, spec float64) Exceedance {
	n := len(xs)
	if n == 0 {
		return Exceedance{P: math.NaN(), SE: math.NaN()}
	}
	hits := 0
	for _, x := range xs {
		if x > spec {
			hits++
		}
	}
	p := float64(hits) / float64(n)
	return Exceedance{P: p, SE: BinomialSE(p, n), Hits: hits, N: n}
}

// WeightedExceedance is an importance-sampled estimate of P[X > spec]:
// the mean of w_i·1{x_i > spec} over proposal draws, with the effective-
// sample-size diagnostics the fallback contract is decided on.
type WeightedExceedance struct {
	// P is the self-unnormalized IS estimate (1/n)·Σ w_i·1{x_i > spec};
	// unbiased when the weights are exact likelihood ratios. NaN when N is 0.
	P float64
	// SE is the sample standard error of the weighted indicator mean —
	// exactly 0 when no trial exceeds (every term is 0).
	SE float64
	// Hits counts proposal samples strictly above spec.
	Hits int
	// N is the proposal sample count.
	N int
	// ESS is the Kish effective sample size (Σw)²/Σw² over all weights.
	// Under a deep-tail tilt it is tiny by design (≈ n·e^{−θ²}); the health
	// signal is HitESS.
	ESS float64
	// HitESS is the effective sample size over the contributing (exceeding)
	// trials only — the number of "plain-MC-equivalent" tail samples the
	// estimate rests on. 0 when nothing exceeds.
	HitESS float64
}

// ExceedanceWeighted computes the importance-sampled exceedance of paired
// samples and likelihood-ratio weights. It panics on length mismatch (a
// caller bug, like Covariance) and returns the no-data value on empty input.
func ExceedanceWeighted(xs, ws []float64, spec float64) WeightedExceedance {
	n := len(xs)
	if len(ws) != n {
		panic(fmt.Sprintf("stats: ExceedanceWeighted length mismatch %d vs %d", n, len(ws)))
	}
	if n == 0 {
		return WeightedExceedance{P: math.NaN(), SE: math.NaN()}
	}
	var sumW, sumW2, hitW, hitW2 float64
	hits := 0
	// Welford over y_i = w_i·1{x_i > spec} gives the estimate and its SE in
	// one deterministic serial pass (the caller hands totals in trial order).
	var run Running
	for i, x := range xs {
		w := ws[i]
		sumW += w
		sumW2 += w * w
		y := 0.0
		if x > spec {
			hits++
			hitW += w
			hitW2 += w * w
			y = w
		}
		run.Push(y)
	}
	out := WeightedExceedance{P: run.Mean(), Hits: hits, N: n}
	if hits == 0 {
		// Every term is exactly zero: the estimate and its spread are 0.
		out.P, out.SE = 0, 0
	} else {
		out.SE = run.StdDev() / math.Sqrt(float64(n))
	}
	if sumW2 > 0 {
		out.ESS = sumW * sumW / sumW2
	}
	if hitW2 > 0 {
		out.HitESS = hitW * hitW / hitW2
	}
	return out
}
