package chipmc

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"leakest/internal/fault"
	"leakest/internal/lkerr"
	"leakest/internal/randvar"
	"leakest/internal/stats"
	"leakest/internal/telemetry"
)

// This file extends the Monte Carlo from moment estimation to distribution
// estimation: quantiles of the sampled chip-leakage distribution, the
// exceedance probability P[I_leak > spec] (one minus parametric yield at the
// spec), and a mean-shifted importance-sampling estimator that reaches deep
// tails (P ~ 1e-4 and below) with orders of magnitude fewer trials than
// plain MC.
//
// The importance sampler exploits the structure of the paper's variation
// model: the die-to-die component is a single scalar N(0, σ_D2D²) shared by
// every gate, and full-chip leakage is monotone in it (leakage rises as
// channel length falls). Tilting only that scalar by θ — drawing
// z₀ + θ instead of z₀ — shifts whole-chip leakage into the tail while the
// likelihood ratio stays one-dimensional and exactly computable:
//
//	w(z₀) = φ(z₀+θ)/φ_proposal = exp(−θ·z₀ − θ²/2)
//
// where z₀ is the RAW standard-normal draw (so the proposal sample is
// z₀ + θ). The within-die field, state draws, and Vt factors are sampled
// from their nominal distributions under both measures, so the weight is an
// exact likelihood ratio and the estimator (1/n)·Σ w_i·1{I_i > spec} is
// unbiased for any θ. At θ = 0 the proposal degenerates to plain MC with
// unit weights, bitwise.
//
// Health is judged on the effective sample size over the *exceeding* trials
// (HitESS): the overall Kish ESS is ≈ n·e^{−θ²} by design (the tilt
// deliberately makes typical-region weights tiny) and says nothing about
// tail accuracy. When HitESS falls below TailConfig.MinESS the estimator
// degrades to the plain-MC exceedance, recording the fallback in the result
// (Source, Degraded, DegradedReason), in the chipmc_is_fallback_total
// counter, and as a span attribute — a typed degradation, not an error.

// DefaultMinESS is the minimum effective sample size over exceeding trials
// below which the IS estimate is considered unhealthy and the result falls
// back to plain MC. 8 effective tail samples bound the relative SE of the
// exceedance near 1/√8 ≈ 35%, the edge of usefulness.
const DefaultMinESS = 8

// Tilt magnitude clamp: below minTilt the tilt is not worth the weight
// variance it introduces; above maxTilt the hit weights grow so dispersed
// that HitESS collapses. The auto-selected |θ| is clamped into this range.
const (
	minTilt = 0.5
	maxTilt = 5.0
)

// autoTilt is the |θ| used when the lognormal moment fit cannot place the
// spec (degenerate moments); it targets the P ≈ 1e-3..1e-4 band the deep-
// tail estimator exists for.
const autoTilt = 3.0

// TailConfig enables distribution-tail estimation on top of a Monte-Carlo
// run. The zero value (and a nil Config.Tail) disables the stage entirely.
type TailConfig struct {
	// Spec is the leakage spec in amperes; when > 0 the run reports the
	// exceedance probability P[I_leak > Spec]. Zero disables exceedance
	// (quantiles may still be requested).
	Spec float64
	// Quantiles lists the probabilities to report quantiles at, each
	// strictly inside (0, 1); duplicates are dropped and the output is
	// ascending. Empty requests no quantiles.
	Quantiles []float64
	// ISTrials is the importance-sampled trial count for the deep-tail
	// exceedance estimate; 0 disables importance sampling (the exceedance
	// then comes from the primary trials alone). Requires Spec > 0.
	ISTrials int
	// Shift overrides the auto-selected tilt θ applied to the shared
	// die-to-die deviate. 0 selects automatically from a lognormal fit of
	// the primary-run moments; the sign is inferred from the design's
	// leakage-vs-length sensitivity.
	Shift float64
	// MinESS is the minimum effective sample size over exceeding IS trials
	// before the estimate degrades to plain MC (default DefaultMinESS).
	MinESS float64
	// WeightScale multiplies every likelihood-ratio weight; 0 means 1
	// (unbiased). Any other value deliberately mis-weights the estimator.
	// It exists for the conformance mutation self-check, which must prove
	// from a plain binary — where test-only fault injection is unavailable
	// — that a biased IS estimator trips the statistical gate.
	WeightScale float64
}

// Validate checks the tail configuration — a finite non-negative spec, a
// non-negative IS trial count that has a spec to aim at, finite shift,
// MinESS and weight scale, and quantiles strictly inside (0, 1) — with
// typed InvalidInput errors, and returns the normalized (ascending,
// deduplicated) quantile list.
func (tc *TailConfig) Validate() ([]float64, error) {
	const op = "chipmc.TailConfig"
	if math.IsNaN(tc.Spec) || math.IsInf(tc.Spec, 0) || tc.Spec < 0 {
		return nil, lkerr.New(lkerr.InvalidInput, op, "tail spec %g must be finite and non-negative", tc.Spec)
	}
	if tc.ISTrials < 0 {
		return nil, lkerr.New(lkerr.InvalidInput, op, "negative IS trial count %d", tc.ISTrials)
	}
	if tc.ISTrials > 0 && tc.Spec == 0 {
		return nil, lkerr.New(lkerr.InvalidInput, op, "importance sampling requires a positive tail spec")
	}
	if math.IsNaN(tc.Shift) || math.IsInf(tc.Shift, 0) {
		return nil, lkerr.New(lkerr.InvalidInput, op, "tail shift %g must be finite", tc.Shift)
	}
	if math.IsNaN(tc.MinESS) || tc.MinESS < 0 {
		return nil, lkerr.New(lkerr.InvalidInput, op, "tail MinESS %g must be non-negative", tc.MinESS)
	}
	if math.IsNaN(tc.WeightScale) || math.IsInf(tc.WeightScale, 0) || tc.WeightScale < 0 {
		return nil, lkerr.New(lkerr.InvalidInput, op, "tail weight scale %g must be finite and non-negative", tc.WeightScale)
	}
	qs, err := stats.NormalizeQuantiles(tc.Quantiles)
	if err != nil {
		return nil, lkerr.Wrap(lkerr.InvalidInput, op, err)
	}
	return qs, nil
}

// QuantilePoint is one reported quantile of the chip-leakage distribution.
type QuantilePoint struct {
	// P is the probability the quantile was requested at.
	P float64 `json:"p"`
	// Value is the leakage quantile in amperes.
	Value float64 `json:"value_a"`
}

// Tail sources.
const (
	// TailSourceMC marks an exceedance estimated from the primary plain-MC
	// trials.
	TailSourceMC = "mc"
	// TailSourceIS marks a healthy importance-sampled exceedance.
	TailSourceIS = "is"
	// TailSourceFallback marks a run where importance sampling was
	// attempted but degraded to the plain-MC estimate (see DegradedReason).
	TailSourceFallback = "fallback"
)

// TailStats is the distribution-tail summary attached to Result when
// Config.Tail is set.
type TailStats struct {
	// Quantiles holds the requested leakage quantiles in ascending P.
	Quantiles []QuantilePoint `json:"quantiles,omitempty"`
	// Spec echoes the leakage spec; 0 when exceedance was not requested.
	Spec float64 `json:"spec_a,omitempty"`
	// P and SE are the reported exceedance probability P[I > Spec] and its
	// standard error, taken from the source named in Source. NaN when no
	// spec was set.
	P  float64 `json:"p_exceed"`
	SE float64 `json:"p_exceed_se"`
	// Source names where P came from: "mc", "is", or "fallback".
	Source string `json:"source,omitempty"`
	// MCP, MCSE, and MCHits are the plain-MC exceedance of the primary
	// trials, always reported alongside the headline estimate.
	MCP    float64 `json:"mc_p"`
	MCSE   float64 `json:"mc_p_se"`
	MCHits int     `json:"mc_hits"`
	// ISTrials is the importance-sampled trial count actually run.
	ISTrials int `json:"is_trials,omitempty"`
	// Shift is the tilt θ applied to the shared die-to-die deviate.
	Shift float64 `json:"is_shift,omitempty"`
	// ISHits counts proposal trials strictly above the spec.
	ISHits int `json:"is_hits,omitempty"`
	// ESS is the overall Kish effective sample size of the IS weights —
	// tiny by design under a deep tilt; diagnostic only.
	ESS float64 `json:"is_ess,omitempty"`
	// HitESS is the effective sample size over exceeding trials, the
	// health criterion of the fallback contract.
	HitESS float64 `json:"is_hit_ess,omitempty"`
	// ESSRatio is HitESS/ISHits in [0, 1]: how close the contributing
	// weights are to uniform (1 = plain-MC-equivalent tail samples).
	ESSRatio float64 `json:"is_ess_ratio,omitempty"`
	// Degraded reports that importance sampling was requested but the
	// headline estimate fell back to plain MC; DegradedReason says why.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
}

// MarshalJSON renders TailStats with NaN-valued probability fields as null
// — the JSON no-data value — since encoding/json rejects NaN. Everything
// else marshals by the field tags.
func (ts TailStats) MarshalJSON() ([]byte, error) {
	finite := func(v float64) *float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil
		}
		return &v
	}
	type alias TailStats // drop the method to avoid recursion
	return json.Marshal(struct {
		alias
		P    *float64 `json:"p_exceed"`
		SE   *float64 `json:"p_exceed_se"`
		MCP  *float64 `json:"mc_p"`
		MCSE *float64 `json:"mc_p_se"`
	}{alias(ts), finite(ts.P), finite(ts.SE), finite(ts.MCP), finite(ts.MCSE)})
}

// selectTilt picks the tilt θ for the die-to-die deviate. The magnitude
// comes from a lognormal fit of the primary-run moments: the spec's
// standard-normal score under the fit is exactly the |θ| that centers the
// proposal on the spec (the variance-optimal neighborhood for a shifted-
// mean estimator). The sign comes from the design's leakage-vs-length
// sensitivity: leakage falls as channel length grows, so the upper leakage
// tail lives at negative z₀ and the tilt must be negative; the probe keeps
// the estimator correct for any monotone characterization.
func selectTilt(tc *TailConfig, res Result, gates []gateState, lnom float64) float64 {
	if tc.Shift != 0 {
		return tc.Shift
	}
	mag := autoTilt
	if mu, sigma, err := randvar.LogNormalFromMoments(res.Mean, res.Std); err == nil && tc.Spec > 0 {
		if z := (math.Log(tc.Spec) - mu) / sigma; !math.IsNaN(z) {
			mag = z
		}
	}
	if mag < minTilt {
		mag = minTilt
	}
	if mag > maxTilt {
		mag = maxTilt
	}
	st := gates[0].states[0]
	if st.Leakage(lnom*1.01) > st.Leakage(lnom*0.99) {
		return mag
	}
	return -mag
}

// runTail executes the tail stage after the primary trials: quantiles from
// the materialized per-trial totals, the plain exceedance, and — when
// requested — the importance-sampled deep-tail exceedance with its health-
// gated fallback. The IS trials run through the primary's engine on the
// tilted counterpart of its field (tailField).
func runTail(ctx context.Context, cfg Config, name string,
	e *engine, primary field, totals []float64, res Result) (*TailStats, error) {
	const op = "chipmc.Tail"
	tc := cfg.Tail
	ctx, endTail := telemetry.WithSpan(ctx, "chipmc.tail")
	defer endTail()

	qs, err := tc.Validate()
	if err != nil {
		return nil, err
	}
	ts := &TailStats{Spec: tc.Spec, P: math.NaN(), SE: math.NaN(), MCP: math.NaN(), MCSE: math.NaN()}
	if len(qs) > 0 {
		vals := stats.Quantiles(totals, qs)
		ts.Quantiles = make([]QuantilePoint, len(qs))
		for i, q := range qs {
			ts.Quantiles[i] = QuantilePoint{P: q, Value: vals[i]}
		}
	}
	if tc.Spec == 0 {
		return ts, nil
	}

	plain := stats.ExceedanceOf(totals, tc.Spec)
	ts.MCP, ts.MCSE, ts.MCHits = plain.P, plain.SE, plain.Hits
	ts.P, ts.SE, ts.Source = plain.P, plain.SE, TailSourceMC

	if tc.ISTrials == 0 {
		return ts, nil
	}
	if cfg.Proc.SigmaD2D == 0 {
		// All-WID process: there is no shared deviate to tilt, so the
		// one-dimensional proposal cannot reach the tail. Typed degradation
		// to the plain estimate, not an error.
		ts.Degraded = true
		ts.DegradedReason = "no die-to-die variance to tilt; importance sampling skipped"
		telemetry.Add("chipmc_is_fallback_total", 1)
		telemetry.SpanAttrBool(ctx, "chipmc.is_fallback", true)
		return ts, nil
	}

	f := tailField(cfg, name, primary, len(e.bufs))
	scale := tc.WeightScale
	if scale == 0 {
		scale = 1
	}
	tilt := selectTilt(tc, res, e.gates, cfg.Proc.LNominal)
	set := &trialSet{
		f:       f,
		stream:  stats.NewStream(cfg.Seed, "chipmc/"+name+"/tail#"),
		tilt:    tilt,
		halfT2:  0.5 * tilt * tilt,
		scale:   scale,
		totals:  make([]float64, tc.ISTrials),
		weights: make([]float64, tc.ISTrials),
	}
	if r := telemetry.Default(); r != nil {
		set.counter = r.Counter("chipmc_tail_trials_total")
	}
	ts.ISTrials = tc.ISTrials
	ts.Shift = tilt
	telemetry.SpanAttrFloat(ctx, "chipmc.is_shift", tilt)
	telemetry.SpanAttrInt(ctx, "chipmc.tail_trials", int64(tc.ISTrials))
	if err := e.run(ctx, op, set); err != nil {
		return nil, err
	}

	// Weight guard, serially in trial order (part of the bitwise
	// determinism contract, like the primary moment reduction).
	for i, w := range set.weights {
		w = fault.Corrupt(fault.SiteISWeight, w)
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, lkerr.New(lkerr.Numerical, op,
				"non-finite importance weight %g at tail trial %d (θ=%g)", w, i, tilt)
		}
		set.weights[i] = w
	}
	we := stats.ExceedanceWeighted(set.totals, set.weights, tc.Spec)
	ts.ISHits, ts.ESS, ts.HitESS = we.Hits, we.ESS, we.HitESS
	if we.Hits > 0 {
		ts.ESSRatio = we.HitESS / float64(we.Hits)
	}
	telemetry.SetGauge("chipmc_is_ess_ratio", ts.ESSRatio)
	telemetry.SpanAttrFloat(ctx, "chipmc.is_ess_ratio", ts.ESSRatio)

	minESS := tc.MinESS
	if minESS == 0 {
		minESS = DefaultMinESS
	}
	if we.HitESS >= minESS {
		ts.P, ts.SE, ts.Source = we.P, we.SE, TailSourceIS
		telemetry.SpanAttrBool(ctx, "chipmc.is_fallback", false)
	} else {
		ts.Source = TailSourceFallback
		ts.Degraded = true
		ts.DegradedReason = fmt.Sprintf(
			"importance-sampling hit ESS %.2f below minimum %g (%d hits in %d trials); using plain-MC exceedance",
			we.HitESS, minESS, we.Hits, tc.ISTrials)
		telemetry.Add("chipmc_is_fallback_total", 1)
		telemetry.SpanAttrBool(ctx, "chipmc.is_fallback", true)
	}
	if err := lkerr.CheckFinite(op, "tail exceedance", ts.P); err != nil {
		return nil, err
	}
	return ts, nil
}

// tailField returns the IS counterpart of a primary field. Every grid
// route tilts the D2D deviates of pseudo-random pairs: the fft and qmc-grid
// routes get the pair field on pair streams of their own (tailpair#), the
// tiled field its per-(tile, pair) streams of the same name. The dense
// route hands its field over without the Sobol sequence, so one Cholesky
// factor serves the primary and the IS trials. Each IS trial draws its raw
// z₀ and per-gate states from the one tail stream.
func tailField(cfg Config, name string, primary field, workers int) field {
	switch f := primary.(type) {
	case *pairField:
		t := newPairField(cfg, name, "tailpair#", f.gs, f.sites, workers)
		t.bufs = f.bufs
		return t
	case *tiledField:
		t := *f
		t.streams = tileStreams(cfg, name, len(f.slots), "tailpair#")
		return &t
	}
	t := *primary.(*denseField)
	t.seq = nil
	return &t
}
