package conformance

import (
	"math"

	"leakest/internal/stats"
)

// Tolerance is a declared allowance for one comparison: the permitted
// absolute deviation at a reference value want is max(Abs, Rel·|want|).
// Exact identities carry a ULP-class Rel; statistical comparisons carry an
// Abs derived from a standard error and a z multiplier, so the tolerance
// scales with the trial count instead of being hand-tuned.
type Tolerance struct {
	Rel float64 `json:"rel,omitempty"`
	Abs float64 `json:"abs,omitempty"`
}

// Allowed returns the absolute deviation permitted at the reference value.
func (t Tolerance) Allowed(want float64) float64 {
	return math.Max(t.Abs, t.Rel*math.Abs(want))
}

// Exact is the ULP-class bound for identities that differ only by
// floating-point accumulation order (parallel shard merges, spline
// evaluations at nearly identical abscissae). 1e-9 relative leaves ~10⁶×
// headroom over observed double-precision reordering noise while still
// catching any 1e-8-level perturbation.
func Exact() Tolerance { return Tolerance{Rel: 1e-9, Abs: 0} }

// RelPct builds a relative tolerance from a percentage bound.
func RelPct(pct float64) Tolerance { return Tolerance{Rel: pct / 100} }

// MeanSETol is the variance-aware tolerance for a sampled mean against an
// analytic reference: z standard errors of the mean at the given trial
// count and per-trial standard deviation.
func MeanSETol(sigma float64, trials int, z float64) Tolerance {
	return Tolerance{Abs: z * stats.MeanSE(sigma, trials)}
}

// StdSETol is the variance-aware tolerance for a sampled standard deviation
// against an analytic reference: z normal-theory standard errors of the
// sample σ at the given trial count. The z multiplier is widened by callers
// when the population is heavy-tailed (the lognormal chip totals).
func StdSETol(sigma float64, trials int, z float64) Tolerance {
	return Tolerance{Abs: z * stats.StdSE(sigma, trials)}
}

// --- Recorded envelopes -------------------------------------------------
//
// EXPERIMENTS.md records the measured error envelope of every approximate
// path at seed 1. RecordedEnvelope turns those tables into bounds with
// documented headroom: size-dependent envelopes are interpolated log-log
// between the recorded sizes, extrapolated with the ~1/√n trend below the
// smallest recorded size, and held flat above the largest.

type anchor struct {
	n   int
	pct float64
}

// Size-dependent envelopes (percent), verbatim from EXPERIMENTS.md.
var recordedAnchors = map[string][]anchor{
	// E4 (Fig. 6): max deviation of random placed circuits from the RG
	// estimate, 10 circuits per size.
	"e4.envelope": {{100, 7.8}, {441, 6.0}, {1024, 3.7}, {2025, 1.6}, {5041, 1.5}, {11236, 0.85}},
	// E7 (Fig. 7): constant-time integral vs the linear method. The tail is
	// recorded as 0.00 % (sub-half-ULP of the table format); 0.01 keeps the
	// flat extrapolation meaningful. Integral2D and Polar run one
	// quadrature; the envelope is kept under both method names because
	// perfbench gates each of its op kinds by name.
	"e7.integral_err": {{25, 11.1}, {64, 5.0}, {256, 1.5}, {1024, 0.44}, {11236, 0.05}, {99856, 0.01}, {315844, 0.01}},
	"e7.polar_err":    {{25, 11.1}, {64, 5.0}, {256, 1.5}, {1024, 0.44}, {11236, 0.05}, {99856, 0.01}, {315844, 0.01}},
}

// Headroom over the recorded envelope: E4 fixtures are random circuits, so
// a reseeded run moves the measured maximum around; the quadrature-backed
// E7 numbers are stable.
var recordedHeadroom = map[string]float64{
	"e4.envelope":     2.0,
	"e7.integral_err": 1.5,
	"e7.polar_err":    1.5,
}

// Size-free envelopes, in the metric's native unit (percent unless noted).
var recordedFlat = map[string]float64{
	// E1: worst fit-vs-MC cell moment errors; the paper's own bounds.
	"e1.mean_err_max": 2.0,
	"e1.std_err_max":  10.0,
	// E2: |f(ρ)−ρ| identity deviation and MC mismatch (absolute, not
	// percent; measured 0.019 / 0.006, MC mismatch widened for the reduced
	// quick-mode sample count).
	"e2.identity_dev": 0.05,
	"e2.mc_mismatch":  0.05,
	// E5: worst ISCAS σ error (measured 1.99 % on c432, ×1.5 headroom for
	// reseeded synthetic circuits).
	"e5.std_err_worst": 3.0,
	// E6: the paper's own < 2.8 % bound on the simplified assumption.
	"e6.simpl_err_worst": 2.8,
}

// RecordedEnvelope returns the bound (with headroom folded in) that the
// named experiment metric must stay under, in the metric's native unit —
// percent for *_err/envelope metrics, absolute for the e2 deviations. n is
// the circuit size for size-dependent envelopes and ignored otherwise. ok
// is false for metrics with no recorded envelope.
func RecordedEnvelope(name string, n int) (bound float64, ok bool) {
	if v, found := recordedFlat[name]; found {
		return v, true
	}
	anchors, found := recordedAnchors[name]
	if !found {
		return 0, false
	}
	return interpEnvelope(anchors, n) * recordedHeadroom[name], true
}

// interpEnvelope interpolates the recorded envelope log-log in (n, pct):
// the error trends are power laws in n, so log-log interpolation follows
// the recorded shape instead of chording across decades.
func interpEnvelope(anchors []anchor, n int) float64 {
	if n <= anchors[0].n {
		// Extrapolate below the table with the ~1/√n trend.
		return anchors[0].pct * math.Sqrt(float64(anchors[0].n)/float64(n))
	}
	last := anchors[len(anchors)-1]
	if n >= last.n {
		return last.pct
	}
	for i := 1; i < len(anchors); i++ {
		a, b := anchors[i-1], anchors[i]
		if n > b.n {
			continue
		}
		t := (math.Log(float64(n)) - math.Log(float64(a.n))) /
			(math.Log(float64(b.n)) - math.Log(float64(a.n)))
		return math.Exp(math.Log(a.pct) + t*(math.Log(b.pct)-math.Log(a.pct)))
	}
	return last.pct
}
