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

// Model is the constructed Random-Gate model for one design spec. It is
// immutable once NewModelCtx returns, so its methods are safe for
// concurrent use.
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

	mu        float64 // µ_XI, Eq. 7
	second    float64 // E[X_I²], Eq. 8
	variance  float64 // σ²_XI
	sumWSigma float64 // Σ w·σ, for the simplified correlation mode
	// cells holds every histogram type's statistics and Mehler vector.
	cells map[string]*cellCov
	// fPieces is F(ρ_L) on each of the covGridPoints−1 uniform ρ knot
	// intervals [k/32, (k+1)/32]: the cubic in t = ρ − k/32 that takes
	// the Mehler series' value and slope at both knots.
	fPieces [covGridPoints - 1][4]float64
	cov     widCov // F(ρ_L(d)) as a cubic in a feature of d, for callers holding d
}

// covGridPoints is the number of uniform ρ knots k/(covGridPoints−1) that
// split F(ρ_L) into cubic pieces.
const covGridPoints = 33

// terms holds one value per Mehler term k = 1…K: a Mehler vector, the
// powers ρᵏ/k! of one ρ, or two vectors' termwise products.
type terms [charlib.HermiteTerms]float64

// cellCov is one cell type's state-weighted statistics at the spec's
// signal probability: its effective (mean, sigma) and its Mehler vector
// Σ_s P(s)·µ_s·h_{s,k}, so that two types' covariance at ρ_L is
// Σ_k ρᵏ/k!·coef_{a,k}·coef_{b,k}. Under the simplified ρ_leak = ρ_L
// mapping the vector is (Σ_s P(s)·σ_s, 0, …, 0).
type cellCov struct {
	mu, sigma float64
	coef      terms
}

// newCellCov returns the statistics of cell cc under the model's mode and
// signal probability.
func (m *Model) newCellCov(cc *charlib.CellChar) *cellCov {
	c := &cellCov{}
	mc := m.Mode.usesMCMoments()
	c.mu, c.sigma = cc.EffectiveStats(m.Spec.SignalProb, mc)
	for i := range cc.States {
		st := &cc.States[i]
		w := cc.StateProb(st.State, m.Spec.SignalProb)
		if w == 0 {
			continue
		}
		if m.Mode.usesSimplifiedCorr() {
			sd := st.FitStd
			if mc {
				sd = st.MCStd
			}
			c.coef[0] += w * sd
			continue
		}
		h := st.Hermite()
		for k := range c.coef {
			c.coef[k] += w * st.FitMean * h[k]
		}
	}
	return c
}

// cellCovOf returns the statistics of cell type typ: the model's own for a
// histogram type, computed afresh (the model stays immutable) for any
// other type of the library.
func (m *Model) cellCovOf(typ string) (*cellCov, error) {
	if c, ok := m.cells[typ]; ok {
		return c, nil
	}
	cc, err := m.Lib.Cell(typ)
	if err != nil {
		return nil, err
	}
	return m.newCellCov(cc), nil
}

// NewModel builds the RG model: the variant distribution, its moments
// (Eqs. 7–8), and the aggregated covariance mapping F(ρ_L) of Eq. 10.
func NewModel(lib *charlib.Library, proc *spatial.Process, spec DesignSpec, mode Mode) (*Model, error) {
	return NewModelCtx(context.Background(), lib, proc, spec, mode)
}

// NewModelCtx is NewModel with cancellation, checked once on entry: the
// build is O(V·K) in the V (cell, state) variants and the K Mehler terms.
//
// The Random Gate's discrete distribution ranges over cells via the usage
// histogram and over input states via the signal probability, so variant
// (cell, state) carries weight w = α_cell·P(state). F(ρ_L), the
// covariance of two distinct gates (Eq. 10), is Σ_v Σ_u w_v·w_u·Cov(X_v,
// X_u), and by Mehler's formula (charlib.Hermite) it is
// Σ_k ρᵏ/k!·c_k² with c_k = Σ_v w_v·µ_v·h_{v,k} = Σ_cell α·coef_k.
func NewModelCtx(ctx context.Context, lib *charlib.Library, proc *spatial.Process, spec DesignSpec, mode Mode) (*Model, error) {
	ctx, end := telemetry.WithSpan(ctx, "core.model")
	defer end()
	if err := lkerr.FromContext(ctx, "core.NewModel"); err != nil {
		return nil, err
	}
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

	m := &Model{Lib: lib, Proc: proc, Spec: spec, Mode: mode}
	labels := spec.Hist.Labels()
	m.cells = make(map[string]*cellCov, len(labels))
	var c terms // c_k
	variants := 0
	for _, name := range labels {
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
			m.mu += w * mu
			m.second += w * (sd*sd + mu*mu)
			m.sumWSigma += w * sd
			variants++
		}
		cs := m.newCellCov(cc)
		m.cells[name] = cs
		for k := range c {
			c[k] += alpha * cs.coef[k]
		}
	}
	if variants == 0 {
		return nil, lkerr.New(lkerr.InvalidInput, "core.NewModel", "RG distribution is empty")
	}
	telemetry.SpanAttrInt(ctx, "variants", int64(variants))
	telemetry.SpanAttrInt(ctx, "hermite_terms", charlib.HermiteTerms)
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
	if mode.usesSimplifiedCorr() {
		c = terms{m.sumWSigma} // F(ρ) = ρ·(Σ w σ)²
	}
	m.buildFPieces(&c)
	m.buildWIDCov()
	return m, nil
}

// mehlerPowers returns ρᵏ/k! for k = 1…K, the weights of the Mehler series.
func mehlerPowers(rho float64) terms {
	var pw terms
	p := 1.0
	for k := range pw {
		p *= rho / float64(k+1)
		pw[k] = p
	}
	return pw
}

// mehlerDot returns Σ_k pw_k·ab_k: a covariance, given the Mehler powers
// of its ρ (mehlerPowers) and the products ab_k = coef_{a,k}·coef_{b,k}
// of its two Mehler vectors.
func mehlerDot(pw, ab *terms) float64 {
	s := 0.0
	for k := range pw {
		s += pw[k] * ab[k]
	}
	return s
}

// mehlerProducts returns the termwise products coef_{a,k}·coef_{b,k}.
func mehlerProducts(a, b *terms) terms {
	var ab terms
	for k := range ab {
		ab[k] = a[k] * b[k]
	}
	return ab
}

// buildFPieces fills fPieces from the aggregated Mehler vector c: at each
// knot ρ_k the series gives F = Σ_k ρᵏ/k!·c_k² and its slope
// F' = Σ_k ρ^(k−1)/(k−1)!·c_k², and each interval's piece is the cubic
// Hermite interpolant of those two pairs. Against the series it is within
// about 2e-11 of F(1) on the built-in libraries, sixteen times closer than
// a cubic expanded about one end, and F stays continuous in value and
// slope. For the simplified modes' line the pieces are that line.
func (m *Model) buildFPieces(c *terms) {
	const h = 1.0 / (covGridPoints - 1)
	c2 := mehlerProducts(c, c)
	var f, df [covGridPoints]float64
	for k := range f {
		pw := mehlerPowers(float64(k) * h)
		f[k] = mehlerDot(&pw, &c2)
		df[k] = c2[0]
		for j := 1; j < len(c2); j++ {
			df[k] += pw[j-1] * c2[j]
		}
	}
	for k := range m.fPieces {
		s := (f[k+1] - f[k]) / h
		m.fPieces[k] = [4]float64{
			f[k],
			df[k],
			(3*s - 2*df[k] - df[k+1]) / h,
			(df[k] + df[k+1] - 2*s) / (h * h),
		}
	}
}

// fPiece returns the ρ knot interval holding rho, the first below 0 and
// the last from 1 on; a NaN rho gets a valid index too.
func fPiece(rho float64) int {
	return min(max(int(rho*(covGridPoints-1)), 0), covGridPoints-2)
}

// fCubic returns piece k of F re-expanded about ρ0: its value and Taylor
// coefficients there, c[0] computed exactly as CovAtCorr evaluates it.
func (m *Model) fCubic(k int, rho0 float64) [4]float64 {
	p := &m.fPieces[k]
	t := rho0 - float64(k)/(covGridPoints-1)
	return [4]float64{
		p[0] + t*(p[1]+t*(p[2]+t*p[3])),
		p[1] + t*(2*p[2]+t*3*p[3]),
		p[2] + t*3*p[3],
		p[3],
	}
}

// MeanPerGate returns µ_XI (Eq. 7) under the model's mode.
func (m *Model) MeanPerGate() float64 { return m.mu }

// RGVariance returns σ²_XI (Eq. 8).
func (m *Model) RGVariance() float64 { return m.variance }

// CovAtCorr returns F(ρ_L), the RG leakage covariance between two distinct
// sites whose channel-length correlation is ρ_L (Eq. 10), from its cubic
// piece (fPieces). Under the simplified ρ_leak = ρ_L mapping it is
// ρ·(Σ w σ)².
func (m *Model) CovAtCorr(rho float64) float64 {
	if rho <= 0 {
		// Uncorrelated lengths ⇒ independent leakages across sites.
		return 0
	}
	if rho > 1 {
		rho = 1
	}
	return max(m.fCubic(fPiece(rho), rho)[0], 0)
}

// CovAtDist returns the RG covariance C_XI of Eq. 11 at distance d: the
// piecewise form with the site variance on the diagonal.
func (m *Model) CovAtDist(d float64) float64 {
	if d == 0 {
		return m.variance
	}
	return m.covAt(d)
}

// covAt returns F(ρ_L(d)), the covariance of two sites at distance d > 0,
// from the composed cubic of widCov: the floor's covariance past the WID
// range, the piece at d's feature within it.
func (m *Model) covAt(d float64) float64 {
	c := &m.cov
	if d > c.r {
		return c.floor
	}
	return c.at(c.feature(d))
}

// widCov is F(ρ_L) composed with the process's correlation split and,
// for the exponential family, with the exponential's own affine map. With
// a = σ_D2D²/σ² and b = σ_WID²/σ², ρ_L = a + b·ρ_WID, and ρ_WID is
// (e − tail)·s in a feature e of the distance: e = exp(−d/λ) with
// tail = exp(−R/λ) and s = 1/(1 − tail) for a TruncatedExpCorr (tail = 0,
// s = 1 for an ExpCorr), and e = ρ_WID(d) itself, tail = 0 and s = 1, for
// every other CorrFunc. So ρ_L = a + b·s·(e − tail), and on each of F's
// covGridPoints−1 cubic pieces F is a cubic in e. Each piece holds that
// cubic in the power basis about its lower end's rounded e-domain point
// e0 (the ρ piece's value and Taylor coefficients at the ρ_L of that
// rounded e0, times (b·s)ᵐ): e − e0 is then exact where e is near e0, and
// a near-flat truncation (tail → 1) does not magnify e0's rounding by s.
// For the exponential family e is exp(−d/λ) bitwise as Rho computes it,
// since s magnifies any rounding of e; so one distance costs a divide, an
// Exp, an index and a Horner step, with no Rho call. The piece holding
// the floor is expanded about e = tail, ρ_L = a, where its c₀ is
// CovAtCorr's own value, so a distance at a finite range's edge gets the
// floor's covariance; with no floor (a = 0) at clamps ρ_L ≤ 0, e ≤ tail,
// to 0 as CovAtCorr does, not to the pieces' rounding-level F(0).
type widCov struct {
	wid         spatial.CorrFunc // the feature is wid.Rho(d) when !exp
	exp         bool             // the feature is exp(−d/lambda)
	lambda      float64          // the exponential's λ
	r           float64          // the WID range; −∞ without WID variation
	floor       float64          // F(ρ_floor), the covariance of every d > r
	alpha, beta float64          // a distance's piece is int(alpha + beta·e)
	zero        float64          // the feature at ρ_L = 0
	pieces      [covGridPoints - 1]struct {
		e0 float64
		c  [4]float64
	}
}

// buildWIDCov composes the model's covariance with its process's split
// and correlation function.
func (m *Model) buildWIDCov() {
	vd := m.Proc.SigmaD2D * m.Proc.SigmaD2D
	vw := m.Proc.SigmaWID * m.Proc.SigmaWID
	c := &m.cov
	a, b := m.Proc.CorrFloor(), vw/(vd+vw)
	c.floor, c.r = m.CovAtCorr(a), math.Inf(-1)
	tail, s := 0.0, 1.0 // ρ_WID = (e − tail)·s
	if vw > 0 {
		c.wid, c.r = m.Proc.WIDCorr, m.Proc.WIDCorr.Range()
		switch f := c.wid.(type) {
		case spatial.ExpCorr:
			c.exp, c.lambda = true, f.Lambda
		case spatial.TruncatedExpCorr:
			// e at d = R is tail bitwise; with tail = 1 (R/λ underflowed)
			// ρ_WID is 1 across the support and Rho serves as the feature.
			if t := math.Exp(-f.R / f.Lambda); t < 1 {
				c.exp, c.lambda, tail, s = true, f.Lambda, t, 1/(1-t)
			}
		}
	}
	bs := b * s
	c.alpha, c.beta = (covGridPoints-1)*(a-bs*tail), (covGridPoints-1)*bs
	c.zero = tail - a/bs
	k0 := c.piece(tail)
	for k := range c.pieces {
		p := &c.pieces[k]
		p.e0 = tail
		if k != k0 {
			if b == 0 { // ρ_L ≡ a: no other piece is reached
				continue
			}
			p.e0 = tail + (float64(k)/(covGridPoints-1)-a)/bs
		}
		p.c = m.fCubic(k, a+bs*(p.e0-tail))
		for i, bm := 1, 1.0; i < 4; i++ {
			bm *= bs
			p.c[i] *= bm
		}
	}
}

// feature returns the e of distance d ≥ 0 within the WID range.
func (c *widCov) feature(d float64) float64 {
	if c.exp {
		return math.Exp(-d / c.lambda)
	}
	return c.wid.Rho(d)
}

// piece returns the index of the F piece holding the feature e,
// the last one from ρ_L = 1 on and the first below ρ_L = 0. A NaN e gets a
// valid index too, and its NaN then reaches the result.
func (c *widCov) piece(e float64) int {
	return min(max(int(c.alpha+c.beta*e), 0), covGridPoints-2)
}

// at returns F(ρ_L) at feature e with CovAtCorr's clamps at 0: 0 for
// ρ_L ≤ 0 (with no floor, the lags on a finite range's edge) and for a
// negative covariance.
func (c *widCov) at(e float64) float64 {
	if e <= c.zero {
		return 0
	}
	p := &c.pieces[c.piece(e)]
	t := e - p.e0
	return max(p.c[0]+t*(p.c[1]+t*(p.c[2]+t*p.c[3])), 0)
}

// CellStats returns the state-weighted effective (mean, sigma) of a cell
// type at the spec's signal probability, under the model's mode. Used by
// the O(n²) true-leakage computation for placed designs.
func (m *Model) CellStats(typ string) (mu, sigma float64, err error) {
	c, err := m.cellCovOf(typ)
	if err != nil {
		return 0, 0, err
	}
	return c.mu, c.sigma, nil
}

// PairCovAtCorr returns the state-weighted leakage covariance between one
// gate of type a and one of type b whose channel lengths have correlation
// rho: the K-term Mehler dot product of the two types' vectors, 0 for
// ρ ≤ 0 and for a negative covariance.
func (m *Model) PairCovAtCorr(a, b string, rho float64) (float64, error) {
	if rho <= 0 {
		return 0, nil
	}
	ca, err := m.cellCovOf(a)
	if err != nil {
		return 0, err
	}
	cb, err := m.cellCovOf(b)
	if err != nil {
		return 0, err
	}
	pw, ab := mehlerPowers(min(rho, 1)), mehlerProducts(&ca.coef, &cb.coef)
	return max(mehlerDot(&pw, &ab), 0), nil
}
