// Package spatial models process variation for statistical leakage
// estimation: the die-to-die (D2D) / within-die (WID) decomposition of
// channel-length variation, random threshold-voltage fluctuation, and the
// spatial correlation of the WID component as a function of distance
// (Section 2 of the paper).
//
// All distances are in micrometres (µm); channel lengths are in µm as well
// so that the regression exponents b, c of the cell-leakage fit are O(10²)
// rather than O(10⁸).
package spatial

import (
	"fmt"
	"math"

	"leakest/internal/linalg"
)

// CorrFunc is a within-die spatial correlation function ρ(d) of the
// channel-length variation between two devices separated by distance d.
// Implementations must satisfy ρ(0) = 1, |ρ(d)| ≤ 1, and be non-increasing.
type CorrFunc interface {
	// Rho returns the correlation at separation d ≥ 0.
	Rho(d float64) float64
	// Range returns the distance beyond which Rho is exactly zero, or
	// math.Inf(1) if the function has unbounded support. The polar
	// constant-time estimator (Eq. 25) requires a finite Range, and the
	// circulant-embedding grid sampler (randvar.GridSampler) sizes its
	// embedding torus to span at least twice a finite Range — when that
	// is affordable — so the wrapped kernel stays positive semi-definite.
	// The O(n) linear estimators rely on Rho(d) being exactly 0 for every
	// d > Range(): they add one constant covariance for all lags beyond
	// it instead of evaluating Rho there.
	Range() float64
	// Name identifies the function family for reports.
	Name() string
}

// ExpCorr is the exponential correlation model ρ(d) = exp(−d/λ), the
// default in much of the statistical-timing literature.
type ExpCorr struct {
	// Lambda is the correlation length in µm.
	Lambda float64
}

// Rho implements CorrFunc.
func (e ExpCorr) Rho(d float64) float64 { return math.Exp(-d / e.Lambda) }

// Range implements CorrFunc; the exponential has unbounded support.
func (e ExpCorr) Range() float64 { return math.Inf(1) }

// Name implements CorrFunc.
func (e ExpCorr) Name() string { return fmt.Sprintf("exp(λ=%gµm)", e.Lambda) }

// GaussCorr is the squared-exponential model ρ(d) = exp(−(d/λ)²).
type GaussCorr struct {
	// Lambda is the correlation length in µm.
	Lambda float64
}

// Rho implements CorrFunc.
func (g GaussCorr) Rho(d float64) float64 { x := d / g.Lambda; return math.Exp(-x * x) }

// Range implements CorrFunc.
func (g GaussCorr) Range() float64 { return math.Inf(1) }

// Name implements CorrFunc.
func (g GaussCorr) Name() string { return fmt.Sprintf("gauss(λ=%gµm)", g.Lambda) }

// SphericalCorr is the geostatistical spherical model with finite support:
//
//	ρ(d) = 1 − 1.5(d/R) + 0.5(d/R)³  for d < R, 0 beyond.
//
// Its compact support makes the single-integral polar method (Eq. 25)
// directly applicable with D_max = R.
type SphericalCorr struct {
	// R is the support radius in µm.
	R float64
}

// Rho implements CorrFunc.
func (s SphericalCorr) Rho(d float64) float64 {
	if d >= s.R {
		return 0
	}
	x := d / s.R
	return 1 - 1.5*x + 0.5*x*x*x
}

// Range implements CorrFunc.
func (s SphericalCorr) Range() float64 { return s.R }

// Name implements CorrFunc.
func (s SphericalCorr) Name() string { return fmt.Sprintf("spherical(R=%gµm)", s.R) }

// TruncatedExpCorr is an exponential decay shifted and rescaled to reach
// exactly zero at distance R, preserving ρ(0) = 1 and continuity:
//
//	ρ(d) = (exp(−d/λ) − exp(−R/λ)) / (1 − exp(−R/λ))  for d < R, 0 beyond.
//
// It approximates ExpCorr for R ≫ λ while providing the compact support the
// polar estimator needs.
type TruncatedExpCorr struct {
	Lambda float64 // correlation length, µm
	R      float64 // support radius, µm
}

// Rho implements CorrFunc.
func (t TruncatedExpCorr) Rho(d float64) float64 {
	if d >= t.R {
		return 0
	}
	tail := math.Exp(-t.R / t.Lambda)
	if tail == 1 {
		// R/λ underflowed: the decay is flat across the whole support (the
		// λ → ∞ limit), and the generic form would divide 0 by 0.
		return 1
	}
	return (math.Exp(-d/t.Lambda) - tail) / (1 - tail)
}

// Range implements CorrFunc.
func (t TruncatedExpCorr) Range() float64 { return t.R }

// Name implements CorrFunc.
func (t TruncatedExpCorr) Name() string {
	return fmt.Sprintf("truncexp(λ=%gµm,R=%gµm)", t.Lambda, t.R)
}

// Process holds the variation model of the fabrication process: the nominal
// channel length, the D2D and WID sigma split, the WID spatial correlation,
// and the random Vt fluctuation.
type Process struct {
	// LNominal is the nominal (mean) channel length, µm.
	LNominal float64
	// SigmaD2D is the die-to-die channel-length sigma, µm.
	SigmaD2D float64
	// SigmaWID is the within-die channel-length sigma, µm.
	SigmaWID float64
	// WIDCorr is the within-die spatial correlation of channel length.
	WIDCorr CorrFunc
	// SigmaVt is the sigma of the purely random (uncorrelated) threshold
	// voltage fluctuation per device, in volts. It affects the mean of the
	// total leakage multiplicatively and is negligible for its variance
	// (Section 2.1 of the paper).
	SigmaVt float64
}

// Validate checks the physical sanity of the process description.
func (p *Process) Validate() error {
	if p.LNominal <= 0 {
		return fmt.Errorf("spatial: nominal length %g must be positive", p.LNominal)
	}
	if p.SigmaD2D < 0 || p.SigmaWID < 0 {
		return fmt.Errorf("spatial: negative sigma (D2D %g, WID %g)", p.SigmaD2D, p.SigmaWID)
	}
	if p.SigmaD2D == 0 && p.SigmaWID == 0 {
		return fmt.Errorf("spatial: process has no channel-length variation")
	}
	if p.SigmaVt < 0 {
		return fmt.Errorf("spatial: negative Vt sigma %g", p.SigmaVt)
	}
	if p.WIDCorr == nil && p.SigmaWID > 0 {
		return fmt.Errorf("spatial: WID variation present but no correlation function")
	}
	tot := p.TotalSigma()
	if tot > 0.25*p.LNominal {
		return fmt.Errorf("spatial: total σ_L %g > 25%% of L %g — outside model validity", tot, p.LNominal)
	}
	return nil
}

// TotalSigma returns the total channel-length sigma
// σ = sqrt(σ_D2D² + σ_WID²), the independence decomposition of Section 2.
func (p *Process) TotalSigma() float64 {
	return math.Sqrt(p.SigmaD2D*p.SigmaD2D + p.SigmaWID*p.SigmaWID)
}

// TotalCorr returns the total channel-length correlation between two devices
// at separation d, combining the fully shared D2D component with the
// distance-decaying WID component by the "simple normalization" of
// Section 2:
//
//	ρ_L(d) = (σ_D2D² + σ_WID²·ρ_WID(d)) / (σ_D2D² + σ_WID²).
func (p *Process) TotalCorr(d float64) float64 {
	vd := p.SigmaD2D * p.SigmaD2D
	vw := p.SigmaWID * p.SigmaWID
	if vd+vw == 0 {
		return 0
	}
	rw := 0.0
	if vw > 0 {
		rw = p.WIDCorr.Rho(d)
	}
	return (vd + vw*rw) / (vd + vw)
}

// CorrFloor returns the distance→∞ limit of TotalCorr, the constant ρ_C the
// polar estimator splits off in Eq. (26): σ_D2D²/(σ_D2D²+σ_WID²). This is
// exact when the WID correlation has finite range and the asymptote
// otherwise.
func (p *Process) CorrFloor() float64 {
	vd := p.SigmaD2D * p.SigmaD2D
	vw := p.SigmaWID * p.SigmaWID
	if vd+vw == 0 {
		return 0
	}
	return vd / (vd + vw)
}

// EffectiveRange returns the distance at which the WID part of the total
// correlation has decayed below eps (relative to its d=0 value). For
// finite-support correlation functions the hard range is returned when it
// is smaller. It is used to pick D_max for the polar estimator and
// truncation radii for sparse covariance assembly.
func (p *Process) EffectiveRange(eps float64) float64 {
	if p.SigmaWID == 0 || p.WIDCorr == nil {
		return 0
	}
	if r := p.WIDCorr.Range(); !math.IsInf(r, 1) {
		return r
	}
	if eps <= 0 {
		eps = 1e-4
	}
	// Exponential-family search: double until below eps, then bisect.
	d := 1.0
	for p.WIDCorr.Rho(d) > eps {
		d *= 2
		if d > 1e9 {
			return d
		}
	}
	lo, hi := 0.0, d
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if p.WIDCorr.Rho(mid) > eps {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// Default90nm returns a representative 90 nm-class process: L = 0.09 µm,
// 3σ total ≈ 12 % of L split between D2D and WID, an exponential WID
// correlation with a 1 mm correlation length truncated at 4λ, and 30 mV of
// random Vt sigma.
//
// The paper used a commercial 90 nm kit whose parameters are proprietary;
// this synthetic process exercises the identical estimation mathematics
// (see DESIGN.md, Substitutions).
func Default90nm() *Process {
	const l = 0.09 // µm
	sigmaTotal := 0.04 * l
	return &Process{
		LNominal: l,
		SigmaD2D: sigmaTotal * math.Sqrt(0.5),
		SigmaWID: sigmaTotal * math.Sqrt(0.5),
		WIDCorr:  TruncatedExpCorr{Lambda: 1000, R: 4000},
		SigmaVt:  0.030,
	}
}

// WIDOnly returns a copy of p with the D2D component removed, used by the
// validation experiments that isolate within-die effects (Section 3.1.2
// runs both configurations). The total sigma shrinks accordingly.
func (p *Process) WIDOnly() *Process {
	q := *p
	q.SigmaD2D = 0
	return &q
}

// AllWID returns a copy of p with the D2D variance folded into the WID
// component, keeping the total sigma unchanged. This is the "solely WID
// variations" configuration of §3.1.2 that remains consistent with a
// characterization done at the total sigma.
func (p *Process) AllWID() *Process {
	q := *p
	q.SigmaWID = p.TotalSigma()
	q.SigmaD2D = 0
	return &q
}

// ValidatePSD checks that the total channel-length correlation, sampled on
// a gridDim×gridDim array of points with the given pitch (µm), forms a
// positive-semidefinite matrix — the condition for the correlation model
// to be physically realizable (cf. the robust-extraction literature the
// paper cites as [5]). It returns the relative diagonal jitter that a
// Cholesky factorization needed: 0 for a cleanly PSD model, a small
// positive value for round-off-marginal models, or an error if no
// reasonable jitter repairs it.
func (p *Process) ValidatePSD(gridDim int, pitch float64) (float64, error) {
	if gridDim < 2 || gridDim > 64 {
		return 0, fmt.Errorf("spatial: PSD grid dimension %d outside [2, 64]", gridDim)
	}
	if pitch <= 0 {
		return 0, fmt.Errorf("spatial: non-positive pitch %g", pitch)
	}
	n := gridDim * gridDim
	m := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		xi, yi := float64(i%gridDim)*pitch, float64(i/gridDim)*pitch
		m.Set(i, i, 1)
		for j := i + 1; j < n; j++ {
			xj, yj := float64(j%gridDim)*pitch, float64(j/gridDim)*pitch
			rho := p.TotalCorr(math.Hypot(xi-xj, yi-yj))
			m.Set(i, j, rho)
			m.Set(j, i, rho)
		}
	}
	_, jit, err := linalg.CholeskyJittered(m, 1e-3)
	if err != nil {
		return 0, fmt.Errorf("spatial: correlation model not PSD on a %d×%d grid (pitch %g): %w",
			gridDim, gridDim, pitch, err)
	}
	return jit, nil
}
