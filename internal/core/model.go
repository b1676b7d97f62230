// Package core implements the paper's contribution: the Random Gate (RG)
// full-chip leakage model (§2.2) and the family of estimators built on it —
// the O(n²) true-leakage baseline (Eq. 15), the exact linear-time
// distance-histogram transformation (Eq. 17), the constant-time 2-D
// rectangular integral (Eq. 20), the constant-time 1-D polar integral
// (Eqs. 25–26), and the no-correlation naive baseline of the early
// estimators the paper improves upon.
package core

import (
	"context"
	"fmt"
	"math"

	"leakest/internal/charlib"
	"leakest/internal/lkerr"
	"leakest/internal/quad"
	"leakest/internal/spatial"
	"leakest/internal/stats"
	"leakest/internal/telemetry"
)

// Mode selects how cell statistics and pairwise leakage correlation are
// obtained (§2.1, §3.1.2).
type Mode int

const (
	// Analytic uses the fitted (a, b, c) moments and the exact
	// f_{m,n}(ρ_L) leakage-correlation mapping.
	Analytic Mode = iota
	// MCSimplified uses the Monte-Carlo cell moments with the simplified
	// assumption ρ_leak = ρ_L (no triplets available in MC mode).
	MCSimplified
	// AnalyticSimplified pairs the fitted moments with the simplified
	// ρ_leak = ρ_L assumption — the §3.1.2 comparison that isolates the
	// error of the correlation assumption alone.
	AnalyticSimplified
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case MCSimplified:
		return "mc-simplified"
	case AnalyticSimplified:
		return "analytic-simplified"
	default:
		return "analytic"
	}
}

// usesMCMoments reports whether cell moments come from the MC
// characterization rather than the analytical fit.
func (m Mode) usesMCMoments() bool { return m == MCSimplified }

// usesSimplifiedCorr reports whether ρ_leak = ρ_L replaces the exact
// f_{m,n} mapping.
func (m Mode) usesSimplifiedCorr() bool { return m != Analytic }

// DesignSpec is the set of high-level design characteristics of Fig. 1:
// everything the Random-Gate model needs to know about a candidate design.
// For early-mode estimation these are expected values; for late-mode they
// are extracted from a netlist and placement.
type DesignSpec struct {
	// Hist is the cell-usage frequency distribution (Eq. 6's α_i).
	Hist *stats.Histogram
	// N is the (actual or expected) number of cells.
	N int
	// W and H are the layout dimensions in µm.
	W, H float64
	// SignalProb is the signal probability applied to all cell inputs
	// (§2.1.4); use the value returned by charlib.MaximizingSignalProb for
	// the paper's conservative setting.
	SignalProb float64
}

// Validate checks the spec for consistency. Violations are typed
// InvalidInput errors, so a malformed design fails loudly at the Estimate
// entry instead of surfacing as a downstream NaN.
func (s *DesignSpec) Validate() error {
	const op = "core.DesignSpec"
	if s.Hist == nil || s.Hist.Len() == 0 {
		return lkerr.New(lkerr.InvalidInput, op, "no cell-usage histogram")
	}
	if s.N <= 0 {
		return lkerr.New(lkerr.InvalidInput, op, "gate count %d must be positive", s.N)
	}
	if !(s.W > 0) || !(s.H > 0) || math.IsInf(s.W, 0) || math.IsInf(s.H, 0) {
		return lkerr.New(lkerr.InvalidInput, op, "dimensions %g×%g must be positive and finite", s.W, s.H)
	}
	if !(s.SignalProb >= 0 && s.SignalProb <= 1) {
		return lkerr.New(lkerr.InvalidInput, op, "signal probability %g outside [0, 1]", s.SignalProb)
	}
	return nil
}

// variant is one (cell, state) outcome of the Random Gate: the RG's
// discrete distribution ranges over cells via the usage histogram and over
// input states via the signal probability, so the flattened variant space
// carries weight α_cell·P(state).
type variant struct {
	weight    float64
	mu, sigma float64
	st        *charlib.StateChar
}

// Model is the constructed Random-Gate model for one design spec.
type Model struct {
	Lib  *charlib.Library
	Proc *spatial.Process
	Spec DesignSpec
	Mode Mode
	// Workers is the goroutine count for the parallelizable estimator
	// loops (the O(n²) pair sum and the linear estimator's distance
	// columns): 0 selects runtime.GOMAXPROCS(0), 1 forces the serial
	// path. Results are bitwise identical at any setting — see
	// internal/parallel for the determinism contract.
	Workers int

	vars      []variant
	mu        float64 // µ_XI, Eq. 7
	second    float64 // E[X_I²], Eq. 8
	variance  float64 // σ²_XI
	sumWSigma float64 // Σ w·σ, for the simplified correlation mode
	fSpline   *quad.Spline

	pairCache map[[2]string]*quad.Spline
	cellCache map[string][2]float64
}

// covGridPoints is the ρ-grid resolution for tabulating F(ρ_L); the mapping
// is smooth and gently curved, so a modest grid splines accurately.
const covGridPoints = 33

// NewModel builds the RG model: the variant distribution, its moments
// (Eqs. 7–8), and the aggregated covariance mapping F(ρ_L) of Eq. 10.
func NewModel(lib *charlib.Library, proc *spatial.Process, spec DesignSpec, mode Mode) (*Model, error) {
	return NewModelCtx(context.Background(), lib, proc, spec, mode)
}

// NewModelCtx is NewModel with cancellation: the F(ρ_L) tabulation — the
// only model-construction step whose cost grows with the variant count —
// checks ctx at every ρ grid point.
func NewModelCtx(ctx context.Context, lib *charlib.Library, proc *spatial.Process, spec DesignSpec, mode Mode) (*Model, error) {
	defer telemetry.StartSpan(ctx, "core.model")()
	if lib == nil {
		return nil, lkerr.New(lkerr.InvalidInput, "core.NewModel", "nil characterized library")
	}
	if proc == nil {
		proc = lib.Process
	}
	if err := proc.Validate(); err != nil {
		return nil, fmt.Errorf("core: process: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// The characterization depends on (µ_L, σ_L); the supplied process may
	// swap the correlation model but must match those.
	if math.Abs(proc.LNominal-lib.Process.LNominal) > 1e-12 ||
		math.Abs(proc.TotalSigma()-lib.Process.TotalSigma()) > 1e-12 {
		return nil, lkerr.New(lkerr.InvalidInput, "core.NewModel",
			"process (µ=%g, σ=%g) inconsistent with characterization (µ=%g, σ=%g)",
			proc.LNominal, proc.TotalSigma(), lib.Process.LNominal, lib.Process.TotalSigma())
	}

	m := &Model{
		Lib: lib, Proc: proc, Spec: spec, Mode: mode,
		pairCache: make(map[[2]string]*quad.Spline),
		cellCache: make(map[string][2]float64),
	}
	for _, name := range spec.Hist.Labels() {
		alpha := spec.Hist.Prob(name)
		if alpha == 0 {
			continue
		}
		cc, err := lib.Cell(name)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		for i := range cc.States {
			st := &cc.States[i]
			w := alpha * cc.StateProb(st.State, spec.SignalProb)
			if w == 0 {
				continue
			}
			mu, sd := st.FitMean, st.FitStd
			if mode.usesMCMoments() {
				mu, sd = st.MCMean, st.MCStd
			}
			m.vars = append(m.vars, variant{weight: w, mu: mu, sigma: sd, st: st})
		}
	}
	if len(m.vars) == 0 {
		return nil, lkerr.New(lkerr.InvalidInput, "core.NewModel", "RG distribution is empty")
	}
	for _, v := range m.vars {
		m.mu += v.weight * v.mu
		m.second += v.weight * (v.sigma*v.sigma + v.mu*v.mu)
		m.sumWSigma += v.weight * v.sigma
	}
	m.variance = m.second - m.mu*m.mu
	if m.variance < 0 {
		m.variance = 0
	}
	if err := lkerr.CheckFinite("core.NewModel", "per-gate mean µ_XI", m.mu); err != nil {
		return nil, err
	}
	if err := lkerr.CheckFinite("core.NewModel", "per-gate variance σ²_XI", m.variance); err != nil {
		return nil, err
	}
	if !mode.usesSimplifiedCorr() {
		if err := m.buildFSpline(ctx); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// buildFSpline tabulates F(ρ_L) = Σ_v Σ_u w_v w_u Cov(X_v, X_u | ρ_L) over
// a ρ grid (Eq. 10 over the variant space).
func (m *Model) buildFSpline(ctx context.Context) error {
	mu, sigma := m.Proc.LNominal, m.Proc.TotalSigma()
	rhos := quad.Linspace(0, 1, covGridPoints)
	fs := make([]float64, len(rhos))
	for k, rho := range rhos {
		if err := lkerr.FromContext(ctx, "core.NewModel"); err != nil {
			return err
		}
		total := 0.0
		for i := range m.vars {
			vi := &m.vars[i]
			// Diagonal term.
			cov, err := charlib.PairCov(vi.st, vi.st, rho, mu, sigma)
			if err != nil {
				return fmt.Errorf("core: F(ρ=%g): %w", rho, err)
			}
			total += vi.weight * vi.weight * cov
			// Off-diagonal pairs, exploiting symmetry.
			for j := i + 1; j < len(m.vars); j++ {
				vj := &m.vars[j]
				cov, err := charlib.PairCov(vi.st, vj.st, rho, mu, sigma)
				if err != nil {
					return fmt.Errorf("core: F(ρ=%g): %w", rho, err)
				}
				total += 2 * vi.weight * vj.weight * cov
			}
		}
		fs[k] = total
	}
	sp, err := quad.NewSpline(rhos, fs)
	if err != nil {
		return fmt.Errorf("core: F spline: %w", err)
	}
	m.fSpline = sp
	return nil
}

// MeanPerGate returns µ_XI (Eq. 7) under the model's mode.
func (m *Model) MeanPerGate() float64 { return m.mu }

// RGVariance returns σ²_XI (Eq. 8).
func (m *Model) RGVariance() float64 { return m.variance }

// CovAtCorr returns F(ρ_L), the RG leakage covariance between two distinct
// sites whose channel-length correlation is ρ_L (Eq. 10). In MCSimplified
// mode the ρ_leak = ρ_L assumption gives F(ρ) = ρ·(Σ w σ)².
func (m *Model) CovAtCorr(rho float64) float64 { return m.covAtCorrFrom(rho, nil) }

// covAtCorrFrom is CovAtCorr with the F spline's segment walked from *seg,
// the previous call's segment, which it then updates; a nil seg bisects.
// quad.LocateFrom finds the segment the bisection would, so the result is
// bitwise CovAtCorr's either way.
func (m *Model) covAtCorrFrom(rho float64, seg *quad.Segment) float64 {
	if rho <= 0 {
		// Uncorrelated lengths ⇒ independent leakages across sites.
		return 0
	}
	if rho > 1 {
		rho = 1
	}
	if m.Mode.usesSimplifiedCorr() {
		return rho * m.sumWSigma * m.sumWSigma
	}
	var g quad.Segment
	if seg == nil {
		g = m.fSpline.Locate(rho)
	} else {
		g = m.fSpline.LocateFrom(*seg, rho)
		*seg = g
	}
	v := m.fSpline.EvalSegment(g)
	if v < 0 {
		v = 0
	}
	return v
}

// CovAtDist returns the RG covariance C_XI of Eq. 11 at distance d: the
// piecewise form with the site variance on the diagonal.
func (m *Model) CovAtDist(d float64) float64 {
	if d == 0 {
		return m.variance
	}
	return m.CovAtCorr(m.Proc.TotalCorr(d))
}

// CorrAtDist returns ρ_XI(d) = C_XI(d)/σ²_XI for d > 0.
func (m *Model) CorrAtDist(d float64) float64 {
	if m.variance == 0 {
		return 0
	}
	return m.CovAtDist(d) / m.variance
}

// CellStats returns the state-weighted effective (mean, sigma) of a cell
// type at the spec's signal probability, under the model's mode. Used by
// the O(n²) true-leakage computation for placed designs.
func (m *Model) CellStats(typ string) (mu, sigma float64, err error) {
	if s, ok := m.cellCache[typ]; ok {
		return s[0], s[1], nil
	}
	cc, err := m.Lib.Cell(typ)
	if err != nil {
		return 0, 0, err
	}
	mu, sigma = cc.EffectiveStats(m.Spec.SignalProb, m.Mode.usesMCMoments())
	m.cellCache[typ] = [2]float64{mu, sigma}
	return mu, sigma, nil
}

// PairCovAtCorr returns the state-weighted leakage covariance between one
// gate of type a and one of type b whose channel lengths have correlation
// rho. Results are tabulated per type pair on the ρ grid and splined, so
// repeated queries inside the O(n²) loop are cheap.
func (m *Model) PairCovAtCorr(a, b string, rho float64) (float64, error) {
	if rho <= 0 {
		return 0, nil
	}
	if rho > 1 {
		rho = 1
	}
	key := [2]string{a, b}
	if b < a {
		key = [2]string{b, a}
	}
	sp, ok := m.pairCache[key]
	if !ok {
		var err error
		sp, err = m.buildPairSpline(key[0], key[1])
		if err != nil {
			return 0, err
		}
		m.pairCache[key] = sp
	}
	v := sp.Eval(rho)
	if v < 0 {
		v = 0
	}
	return v, nil
}

func (m *Model) buildPairSpline(a, b string) (*quad.Spline, error) {
	ca, err := m.Lib.Cell(a)
	if err != nil {
		return nil, err
	}
	cb, err := m.Lib.Cell(b)
	if err != nil {
		return nil, err
	}
	mu, sigma := m.Proc.LNominal, m.Proc.TotalSigma()
	p := m.Spec.SignalProb
	rhos := quad.Linspace(0, 1, covGridPoints)
	fs := make([]float64, len(rhos))
	if m.Mode.usesSimplifiedCorr() {
		// ρ_leak = ρ_L: covariance is ρ·(Σ_s P(s)σ_as)·(Σ_t P(t)σ_bt).
		mc := m.Mode.usesMCMoments()
		std := func(st *charlib.StateChar) float64 {
			if mc {
				return st.MCStd
			}
			return st.FitStd
		}
		sa, sb := 0.0, 0.0
		for i := range ca.States {
			sa += ca.StateProb(ca.States[i].State, p) * std(&ca.States[i])
		}
		for i := range cb.States {
			sb += cb.StateProb(cb.States[i].State, p) * std(&cb.States[i])
		}
		for k, rho := range rhos {
			fs[k] = rho * sa * sb
		}
	} else {
		for k, rho := range rhos {
			total := 0.0
			for i := range ca.States {
				wa := ca.StateProb(ca.States[i].State, p)
				if wa == 0 {
					continue
				}
				for j := range cb.States {
					wb := cb.StateProb(cb.States[j].State, p)
					if wb == 0 {
						continue
					}
					cov, err := charlib.PairCov(&ca.States[i], &cb.States[j], rho, mu, sigma)
					if err != nil {
						return nil, fmt.Errorf("core: pair %s/%s at ρ=%g: %w", a, b, rho, err)
					}
					total += wa * wb * cov
				}
			}
			fs[k] = total
		}
	}
	return quad.NewSpline(rhos, fs)
}
