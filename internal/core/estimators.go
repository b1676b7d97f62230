package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"leakest/internal/lkerr"
	"leakest/internal/quad"
	"leakest/internal/telemetry"
)

// Result is the outcome of one estimation: the full-chip leakage mean and
// standard deviation, plus bookkeeping about how they were obtained.
type Result struct {
	// Mean and Std are the full-chip leakage statistics in amperes.
	Mean, Std float64
	// Method names the estimator.
	Method string
	// GridRows and GridCols are the RG-array factorization used by the
	// linear method (zero for the others).
	GridRows, GridCols int
	// Note carries estimator-specific remarks (e.g. occupancy scaling).
	Note string
	// TileStats holds per-tile moments when a tiled estimator produced this
	// result (DESIGN.md §16); nil for the monolithic paths.
	TileStats []TileStat
	// Degraded reports that a budget ruled out the requested method and the
	// statistics come from a cheaper estimator (Method names which one).
	Degraded bool
	// DegradeReason explains which budget tripped and what was skipped.
	DegradeReason string
	// Timings is the per-stage wall-clock breakdown of the call that
	// produced this result (model construction, the estimator itself, and —
	// for placed designs — extraction and the pair loop), recorded by the
	// telemetry layer at the public entry points.
	Timings []telemetry.StageTiming
}

// checkFinite rejects a result whose statistics carry NaN or Inf, naming
// the offending quantity — the final-moment guard that keeps a corrupted
// accumulation from escaping as a silent NaN.
func (r Result) checkFinite(op string) (Result, error) {
	if err := lkerr.CheckFinite(op, "mean", r.Mean); err != nil {
		return Result{}, err
	}
	if err := lkerr.CheckFinite(op, "std", r.Std); err != nil {
		return Result{}, err
	}
	return r, nil
}

// modelGrid factorizes the spec into the k×m RG array of Fig. 4 whose
// aspect matches the layout. When k·m ≠ N (gate counts rarely factorize
// into the layout aspect exactly), the off-diagonal covariance mass is
// scaled by N(N−1)/(S(S−1)) — the expected pair count of N gates occupying
// N of S sites uniformly at random; with S = N the formulas reduce to the
// paper's exactly.
func (m *Model) modelGrid() (rows, cols int) {
	n := float64(m.Spec.N)
	cols = int(math.Round(math.Sqrt(n * m.Spec.W / m.Spec.H)))
	if cols < 1 {
		cols = 1
	}
	rows = int(math.Round(n / float64(cols)))
	if rows < 1 {
		rows = 1
	}
	return rows, cols
}

// timeMethod spans an estimator stage, returning the context that carries
// the span for its attributes, and, when metrics are enabled, observes
// estimate_duration_seconds{method=...}. The disabled path costs one
// context lookup plus two atomic loads per estimation, never per
// iteration.
func timeMethod(ctx context.Context, method, stage string) (context.Context, func()) {
	ctx, end := telemetry.WithSpan(ctx, stage)
	if !telemetry.MetricsOn() {
		return ctx, end
	}
	start := time.Now()
	name := telemetry.Label("estimate_duration_seconds", "method", method)
	return ctx, func() {
		end()
		telemetry.ObserveSeconds(name, time.Since(start).Seconds())
	}
}

// EstimateLinear computes the full-chip statistics with the O(n) method of
// §3.1 (Eq. 17): the pairwise covariance sum regrouped by distance vector
// with multiplicity (m−|i|)(k−|j|).
func (m *Model) EstimateLinear() (Result, error) {
	return m.EstimateLinearCtx(context.Background())
}

// EstimateLinearCtx is EstimateLinear with cancellation: the lag loop
// checks ctx once per grid column, where it also reports progress.
func (m *Model) EstimateLinearCtx(ctx context.Context) (Result, error) {
	ctx, end := timeMethod(ctx, "linear", "estimate.linear")
	defer end()
	k, cols := m.modelGrid()
	variance, _, note, err := m.latticeVariance(ctx, "core.EstimateLinear", "estimate.linear", k, cols, nil)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Mean:     float64(m.Spec.N) * m.mu,
		Std:      math.Sqrt(variance),
		Method:   "linear",
		GridRows: k,
		GridCols: cols,
		Note:     note,
	}.checkFinite("core.EstimateLinear")
}

// EstimateIntegral2D computes the statistics with the constant-time 2-D
// rectangular integral of §3.2.1 (Eq. 20):
//
//	σ² ≈ 4·(n²/A²)·∫₀ᵂ∫₀ᴴ (W−x)(H−y)·C_XI(√(x²+y²)) dy dx
//
// evaluated with panelled Gauss–Legendre quadrature whose resolution tracks
// the correlation length.
func (m *Model) EstimateIntegral2D() (Result, error) {
	return m.EstimateIntegral2DCtx(context.Background())
}

// EstimateIntegral2DCtx is EstimateIntegral2D with stage telemetry attached
// to ctx (the quadrature itself is constant-time and uninterruptible).
func (m *Model) EstimateIntegral2DCtx(ctx context.Context) (Result, error) {
	_, end := timeMethod(ctx, "integral-2d", "estimate.integral-2d")
	defer end()
	n := float64(m.Spec.N)
	variance, nx, ny := m.rectVariance(n, m.Spec.W, m.Spec.H)
	return Result{
		Mean:   n * m.mu,
		Std:    math.Sqrt(variance),
		Method: "integral-2d",
		Note:   fmt.Sprintf("%d×%d Gauss-Legendre panels", nx, ny),
	}.checkFinite("core.EstimateIntegral2D")
}

// rectVariance is the Eq. 20 variance of n gates spread over a w×h die (or
// tile), on an nx×ny panel grid sized so each correlation length gets
// several panels.
func (m *Model) rectVariance(n, w, h float64) (variance float64, nx, ny int) {
	lam := m.Proc.EffectiveRange(0.1)
	if lam <= 0 {
		lam = math.Max(w, h)
	}
	scale := func(extent float64) int {
		p := int(math.Ceil(4 * extent / lam))
		if p < 6 {
			p = 6
		}
		if p > 48 {
			p = 48
		}
		return p
	}
	nx, ny = scale(w), scale(h)
	integrand := func(x, y float64) float64 {
		return (w - x) * (h - y) * m.covAt(math.Hypot(x, y))
	}
	area := w * h
	variance = 4 * n * n / (area * area) * quad.Integrate2D(integrand, 0, w, 0, h, nx, ny)
	if variance < 0 {
		variance = 0
	}
	return variance, nx, ny
}

// EstimatePolar computes the statistics with the constant-time 1-D polar
// integral of §3.2.2 (Eqs. 25–26), Eq. 20 in polar coordinates:
//
//	σ² ≈ 4·(n²/A²)·∫₀^{min(Dmax, D)} C'(r)·r·G(r) dr + n²·C_floor
//
// where C'(r) = C_XI(r) − C_floor, C_floor is the D2D covariance floor,
// D = √(W²+H²) is the die diagonal and G is the exact angular weight
// (polarWeight). G is the paper's g(r) = 0.5·r² − (W+H)·r + (π/2)·W·H up
// to min(W, H) and has a closed form beyond, so the method applies to
// every correlation range.
func (m *Model) EstimatePolar() (Result, error) {
	return m.EstimatePolarCtx(context.Background())
}

// EstimatePolarCtx is EstimatePolar with stage telemetry attached to ctx.
func (m *Model) EstimatePolarCtx(ctx context.Context) (Result, error) {
	_, end := timeMethod(ctx, "polar-1d", "estimate.polar-1d")
	defer end()
	w, h := m.Spec.W, m.Spec.H
	// A pure-D2D process has no within-die term: C'(r) is identically zero
	// and only the covariance floor survives, so the integration range is
	// empty.
	dmax := 0.0
	if m.Proc.SigmaWID > 0 && m.Proc.WIDCorr != nil {
		dmax = m.Proc.WIDCorr.Range()
		if math.IsInf(dmax, 1) {
			dmax = m.Proc.EffectiveRange(1e-4)
		}
	}
	floor := m.CovAtCorr(m.Proc.CorrFloor())
	integrand := func(r float64) float64 {
		c := m.covAt(r) - floor
		return c * r * polarWeight(r, w, h)
	}
	n := float64(m.Spec.N)
	area := w * h
	// The integrand varies on the correlation-length scale; a few panels
	// per length give quadrature error far below the model error.
	lam := m.Proc.EffectiveRange(0.5)
	panels := func(span float64) int {
		p := 16
		if lam > 0 {
			if q := int(math.Ceil(8 * span / lam)); q > p {
				p = q
			}
		}
		return min(p, 256)
	}
	// G has kinks at both die sides, so each smooth piece of the range
	// gets its own panels; nothing lies past the diagonal, where G = 0.
	top := math.Min(dmax, math.Hypot(w, h))
	integral, lo := 0.0, 0.0
	for _, hi := range [...]float64{math.Min(w, h), math.Max(w, h), top} {
		if hi = math.Min(hi, top); hi > lo {
			integral += quad.GaussLegendrePanels(integrand, lo, hi, panels(hi-lo))
			lo = hi
		}
	}
	variance := 4*n*n/(area*area)*integral + n*n*floor
	if variance < 0 {
		variance = 0
	}
	return Result{
		Mean:   n * m.mu,
		Std:    math.Sqrt(variance),
		Method: "polar-1d",
		Note:   fmt.Sprintf("Dmax = %.4g µm", dmax),
	}.checkFinite("core.EstimatePolar")
}

// polarWeight is the exact angular weight of Eq. 20 in polar coordinates,
//
//	G(r) = ∫₀^{π/2} (W − r·cos θ)₊·(H − r·sin θ)₊ dθ.
//
// For r ≤ min(W, H) both factors stay positive and G is the paper's g(r).
// Beyond, the integrand lives on θ ∈ [acos(min(1, W/r)), asin(min(1, H/r))],
// where its antiderivative is W·H·θ + W·r·cos θ − H·r·sin θ + ½·r²·sin²θ;
// past the die diagonal that interval is empty and G = 0.
func polarWeight(r, w, h float64) float64 {
	if r <= math.Min(w, h) {
		return 0.5*r*r - (w+h)*r + math.Pi/2*w*h
	}
	// cos θ_W = min(1, W/r) and sin θ_H = min(1, H/r), so the bounds' other
	// trigonometric values are square roots.
	cw, sh := math.Min(1, w/r), math.Min(1, h/r)
	lo, hi := math.Acos(cw), math.Asin(sh)
	if hi <= lo {
		return 0
	}
	f := func(t, s, c float64) float64 {
		return w*h*t + w*r*c - h*r*s + 0.5*r*r*s*s
	}
	return f(hi, sh, math.Sqrt(1-sh*sh)) - f(lo, math.Sqrt(1-cw*cw), cw)
}

// EstimateNaive is the no-correlation baseline in the style of the early
// estimators [1, 2] the paper improves on: gates are treated as
// independent, so the variance is only n·σ²_XI. It badly underestimates
// the spread when within-die correlation is present.
func (m *Model) EstimateNaive() (Result, error) {
	return m.EstimateNaiveCtx(context.Background())
}

// EstimateNaiveCtx is EstimateNaive with stage telemetry attached to ctx.
func (m *Model) EstimateNaiveCtx(ctx context.Context) (Result, error) {
	_, end := timeMethod(ctx, "naive-independent", "estimate.naive")
	defer end()
	n := float64(m.Spec.N)
	return Result{
		Mean:   n * m.mu,
		Std:    math.Sqrt(n * m.variance),
		Method: "naive-independent",
	}.checkFinite("core.EstimateNaive")
}
