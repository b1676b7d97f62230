// Package charlib characterizes a standard-cell library for statistical
// leakage (Section 2.1 of the paper). For every cell and every input/state
// combination it produces:
//
//   - a tabulated leakage-versus-channel-length curve I(L) (the substitute
//     for the paper's SPICE runs), stored as a cubic spline in ln I;
//   - Monte-Carlo moments of the leakage under L ~ N(µ, σ²), with all
//     devices in the cell fully correlated in L (§2.1.1);
//   - the analytical model X = a·e^(bL+cL²): the (a, b, c) triplet fitted
//     by least squares in the log domain, and the exact moments through the
//     non-central-χ² MGF (§2.1.2, Eqs. 1–5);
//   - the machinery to map channel-length correlation to leakage
//     correlation between any two characterized states (§2.1.3), and the
//     signal-probability weighting of states (§2.1.4).
package charlib

import (
	"context"
	"fmt"
	"math"

	"leakest/internal/cells"
	"leakest/internal/fault"
	"leakest/internal/linalg"
	"leakest/internal/lkerr"
	"leakest/internal/parallel"
	"leakest/internal/quad"
	"leakest/internal/randvar"
	"leakest/internal/spatial"
	"leakest/internal/stats"
	"leakest/internal/telemetry"
)

// Config controls characterization.
type Config struct {
	// Process supplies µ_L and the total σ_L.
	Process *spatial.Process
	// CurvePoints is the number of L-grid points for the tabulated curve
	// (default 15, spanning ±CurveSpan sigmas).
	CurvePoints int
	// CurveSpan is the half-width of the tabulation grid in sigmas
	// (default 6).
	CurveSpan float64
	// FitPoints and FitSpan control the analytical regression grid
	// (defaults 9 points over ±3 sigmas — a "limited sampling" as in the
	// paper).
	FitPoints int
	FitSpan   float64
	// MCSamples is the Monte-Carlo sample count per state (default 20000).
	MCSamples int
	// Seed makes the MC reproducible.
	Seed int64
	// Workers is the goroutine count characterizing (cell, state) pairs:
	// 0 selects runtime.GOMAXPROCS(0), 1 forces the serial path. The
	// library is bitwise identical at any setting — every state draws from
	// its own PRNG stream keyed by (Seed, cell name, state).
	Workers int
}

func (c *Config) setDefaults() error {
	if c.Process == nil {
		return fmt.Errorf("charlib: Config.Process is required")
	}
	if err := c.Process.Validate(); err != nil {
		return fmt.Errorf("charlib: invalid process: %w", err)
	}
	if c.CurvePoints == 0 {
		c.CurvePoints = 15
	}
	if c.CurveSpan == 0 {
		c.CurveSpan = 6
	}
	if c.FitPoints == 0 {
		c.FitPoints = 9
	}
	if c.FitSpan == 0 {
		c.FitSpan = 3
	}
	if c.MCSamples == 0 {
		c.MCSamples = 20000
	}
	if c.CurvePoints < 4 || c.FitPoints < 3 {
		return fmt.Errorf("charlib: too few grid points (%d curve, %d fit)", c.CurvePoints, c.FitPoints)
	}
	if c.MCSamples < 100 {
		return fmt.Errorf("charlib: MCSamples %d too small", c.MCSamples)
	}
	return nil
}

// StateChar is the characterization of one (cell, input-state) pair.
type StateChar struct {
	// State encodes the input bits.
	State uint
	// MCMean and MCStd are the Monte-Carlo leakage moments.
	MCMean, MCStd float64
	// A, B, C are the fitted parameters of X = A·e^(BL+CL²).
	A, B, C float64
	// FitMean and FitStd are the exact moments of the fitted model
	// (Eqs. 1–5).
	FitMean, FitStd float64
	// GridL and GridLnI are the tabulated curve samples (ln of amperes),
	// retained for serialization and full-chip Monte Carlo.
	GridL, GridLnI []float64

	curve *quad.Spline // spline over (L, ln I)
	herm  Hermite      // the fitted model's Mehler coefficients over FitMean
}

// HermiteTerms is K, the number of Mehler terms a state's covariance
// series keeps (see Hermite).
const HermiteTerms = 10

// Hermite holds h_1…h_K of a fitted state X = A·e^(BL+CL²), L = µ + σZ:
// the state's Hermite coefficients E[X·He_k(Z)] over its mean FitMean
// (h₀ = 1). By Mehler's formula two states whose channel lengths have
// correlation ρ have
//
//	Cov(X_a, X_b) = FitMean_a·FitMean_b · Σ_{k≥1} ρᵏ/k!·h_{a,k}·h_{b,k}.
//
// E[X·e^(tZ−t²/2)] = FitMean·e^(u·t+v·t²) with q = 1 − 2Cσ²,
// u = (Bσ + 2Cµσ)/q and v = Cσ²/q, so h₁ = u and
// h_{k+1} = u·h_k + 2v·k·h_{k−1}.
//
// Truncation bound: |h_k| ≤ ĥ_k, the same recursion on |u| and |v|, so a
// series cut after K terms omits at most µ_a·µ_b·Σ_{k>K} ĥ_k²/k! for
// |ρ| ≤ 1. Every state of the built-in 62-cell library has |u| ≤ 0.31 and
// |v| ≤ 0.013, where that sum is below 1.9e-14, about 2e-13 of the
// leading term µ_a·µ_b·u². Past K = 10 the series' distance from the
// bivariate closed form PairCov stops shrinking: it sits at PairCov's own
// cancellation (about 1e-11 of F(1) for a few dozen states, 5e-10 for the
// 595 states of the full library).
type Hermite [HermiteTerms]float64

// Hermite returns the state's Mehler coefficients.
func (s *StateChar) Hermite() Hermite { return s.herm }

// hermite computes the coefficients of the fitted model under
// L ~ N(mu, sigma²); the exponential moment must exist (q > 0).
func (s *StateChar) hermite(mu, sigma float64) (Hermite, error) {
	var h Hermite
	q := 1 - 2*s.C*sigma*sigma
	if !(q > 0) {
		return h, fmt.Errorf("%w: 1-2Cσ² = %g ≤ 0", randvar.ErrDiverges, q)
	}
	u, v := (s.B*sigma+2*s.C*mu*sigma)/q, s.C*sigma*sigma/q
	prev := 1.0 // h_{k−1}
	h[0] = u
	for k := 1; k < HermiteTerms; k++ {
		h[k], prev = u*h[k-1]+2*v*float64(k)*prev, h[k-1]
	}
	return h, nil
}

// Leakage evaluates the tabulated curve at channel length l.
func (s *StateChar) Leakage(l float64) float64 {
	return math.Exp(s.curve.Eval(l))
}

// CellChar aggregates the per-state characterizations of one cell.
type CellChar struct {
	Name       string
	NumInputs  int
	NumDevices int
	Class      string
	States     []StateChar
}

// StateProb returns the probability of input state s when every input is an
// independent Bernoulli with P(1) = p (the signal probability of §2.1.4).
func (c *CellChar) StateProb(s uint, p float64) float64 {
	prob := 1.0
	for i := 0; i < c.NumInputs; i++ {
		if s&(1<<uint(i)) != 0 {
			prob *= p
		} else {
			prob *= 1 - p
		}
	}
	return prob
}

// EffectiveStats returns the state-weighted leakage mean and standard
// deviation of the cell at signal probability p. The state enters as a
// mixture: E[X] = Σ_s P(s)µ_s and E[X²] = Σ_s P(s)(σ_s² + µ_s²), using the
// MC moments when mc is true and the analytical-fit moments otherwise.
func (c *CellChar) EffectiveStats(p float64, mc bool) (mean, std float64) {
	m, m2 := 0.0, 0.0
	for i := range c.States {
		st := &c.States[i]
		w := c.StateProb(st.State, p)
		if w == 0 {
			continue
		}
		mu, sd := st.FitMean, st.FitStd
		if mc {
			mu, sd = st.MCMean, st.MCStd
		}
		m += w * mu
		m2 += w * (sd*sd + mu*mu)
	}
	v := m2 - m*m
	if v < 0 {
		v = 0
	}
	return m, math.Sqrt(v)
}

// Library is a fully characterized cell library.
type Library struct {
	// Process records the variation model the characterization assumed.
	Process *spatial.Process
	// Cells holds one entry per library cell, sorted by name.
	Cells []CellChar

	byName map[string]*CellChar
}

// Cell returns the characterization of the named cell, or an error.
func (l *Library) Cell(name string) (*CellChar, error) {
	if c, ok := l.byName[name]; ok {
		return c, nil
	}
	return nil, fmt.Errorf("charlib: cell %q not characterized", name)
}

// VtMeanFactor returns the multiplicative correction to the mean leakage
// due to purely random per-device Vt fluctuation: E[e^(−ΔVt/(n·vT))] for
// ΔVt ~ N(0, σ_Vt²). As the paper notes (§2.1), this affects the mean only;
// the variance contribution is negligible at full-chip scale (verified by
// the Vt-ablation experiment). The NMOS slope factor and thermal voltage of
// the default technology card are used.
func (l *Library) VtMeanFactor() float64 {
	if l.Process.SigmaVt == 0 {
		return 1
	}
	const nvt = 1.4 * 0.0259 // n·vT of the default 90 nm card
	return randvar.LogNormalMeanFactor(1/nvt, l.Process.SigmaVt)
}

// rebuild reconstructs the spline curves, the Mehler coefficients and the
// name index after characterization or deserialization.
func (l *Library) rebuild() error {
	mu, sigma := l.Process.LNominal, l.Process.TotalSigma()
	l.byName = make(map[string]*CellChar, len(l.Cells))
	for i := range l.Cells {
		cc := &l.Cells[i]
		if _, dup := l.byName[cc.Name]; dup {
			return fmt.Errorf("charlib: duplicate cell %q", cc.Name)
		}
		l.byName[cc.Name] = cc
		for j := range cc.States {
			st := &cc.States[j]
			sp, err := quad.NewSpline(st.GridL, st.GridLnI)
			if err != nil {
				return fmt.Errorf("charlib: %s state %d: %w", cc.Name, st.State, err)
			}
			st.curve = sp
			if st.herm, err = st.hermite(mu, sigma); err != nil {
				return fmt.Errorf("charlib: %s state %d: %w", cc.Name, st.State, err)
			}
		}
	}
	return nil
}

// Characterize runs the full characterization of lib under cfg.
func Characterize(lib []*cells.Cell, cfg Config) (*Library, error) {
	return CharacterizeContext(context.Background(), lib, cfg)
}

// CharacterizeContext is Characterize with cancellation: ctx is checked
// before every (cell, state) characterization and periodically inside each
// state's Monte-Carlo loop, so a cancel lands within one check interval.
func CharacterizeContext(ctx context.Context, lib []*cells.Cell, cfg Config) (*Library, error) {
	const op = "charlib.Characterize"
	ctx, endChar := telemetry.WithSpan(ctx, "charlib.characterize")
	defer endChar()
	if err := cfg.setDefaults(); err != nil {
		return nil, lkerr.Wrap(lkerr.InvalidInput, op, err)
	}
	if len(lib) == 0 {
		return nil, lkerr.New(lkerr.InvalidInput, op, "empty cell library")
	}
	proc := cfg.Process
	mu, sigma := proc.LNominal, proc.TotalSigma()

	// Progress is counted in (cell, state) characterization units — the
	// uniform quantum of work — and reported at the existing per-state
	// cancellation checkpoint.
	totalStates := int64(0)
	for _, cell := range lib {
		totalStates += int64(cell.NumStates())
	}
	telemetry.SpanAttrInt(ctx, "charlib.cells", int64(len(lib)))
	telemetry.SpanAttrInt(ctx, "charlib.states", totalStates)
	rep := telemetry.StartProgress(ctx, "charlib.characterize", totalStates)
	var cellsC *telemetry.Counter
	if r := telemetry.Default(); r != nil {
		cellsC = r.Counter("charlib_cells_characterized")
	}

	// Fan out per (cell, state): each task owns one pre-allocated States
	// slot and its own PRNG stream (seeded inside characterizeState from
	// the cell name and state index), so the fan-out order cannot leak
	// into the result.
	out := &Library{Process: proc, Cells: make([]CellChar, len(lib))}
	type charTask struct {
		cell  int
		state uint
	}
	tasks := make([]charTask, 0, totalStates)
	for ci, cell := range lib {
		out.Cells[ci] = CellChar{
			Name:       cell.Name,
			NumInputs:  cell.NumInputs,
			NumDevices: cell.NumDevices,
			Class:      cell.Class,
			States:     make([]StateChar, cell.NumStates()),
		}
		for s := uint(0); s < uint(cell.NumStates()); s++ {
			tasks = append(tasks, charTask{cell: ci, state: s})
		}
	}
	tick := parallel.NewTicker(rep)
	err := parallel.ForEach(ctx, op, cfg.Workers, len(tasks), func(_, i int) error {
		tk := tasks[i]
		cell := lib[tk.cell]
		st, err := characterizeState(ctx, cell, tk.state, mu, sigma, &cfg)
		if err != nil {
			return lkerr.Wrap(lkerr.Numerical, op,
				fmt.Errorf("%s state %d: %w", cell.Name, tk.state, err))
		}
		out.Cells[tk.cell].States[tk.state] = st
		tick.Tick()
		return nil
	})
	if err != nil {
		rep.Done(tick.Count())
		return nil, err
	}
	cellsC.Add(int64(len(lib)))
	rep.Done(totalStates)
	if err := out.rebuild(); err != nil {
		return nil, err
	}
	return out, nil
}

// mcCheckInterval is how many Monte-Carlo samples run between cancellation
// checks inside a state characterization.
const mcCheckInterval = 4096

func characterizeState(ctx context.Context, cell *cells.Cell, state uint, mu, sigma float64, cfg *Config) (StateChar, error) {
	fault.Hit(fault.SiteCharState)
	st := StateChar{State: state}
	// 1. Tabulate ln I over the curve grid; clamp the lower end above zero
	//    channel length.
	lo := mu - cfg.CurveSpan*sigma
	hi := mu + cfg.CurveSpan*sigma
	if lo <= 0.3*mu {
		lo = 0.3 * mu
	}
	st.GridL = quad.Linspace(lo, hi, cfg.CurvePoints)
	st.GridLnI = make([]float64, len(st.GridL))
	for i, l := range st.GridL {
		// TotalLeakage = subthreshold + gate tunneling; the latter is zero
		// unless the cell's devices have gate leakage enabled.
		x := cell.TotalLeakage(state, l, nil)
		if !(x > 0) {
			return st, fmt.Errorf("non-positive leakage %g at L=%g", x, l)
		}
		st.GridLnI[i] = math.Log(x)
	}
	sp, err := quad.NewSpline(st.GridL, st.GridLnI)
	if err != nil {
		return st, err
	}
	st.curve = sp

	// 2. Analytical fit over the (narrower) fit grid: linear least squares
	//    for ln X = ln a + bL + cL².
	fitL := quad.Linspace(mu-cfg.FitSpan*sigma, mu+cfg.FitSpan*sigma, cfg.FitPoints)
	a3, b3, c3, err := FitABC(fitL, func(l float64) float64 { return sp.Eval(l) })
	if err != nil {
		return st, fmt.Errorf("fit: %w", err)
	}
	st.A, st.B, st.C = a3, b3, c3
	params, err := randvar.NewMGFParams(a3, b3, c3, mu, sigma)
	if err != nil {
		return st, fmt.Errorf("mgf: %w", err)
	}
	st.FitMean, st.FitStd, err = params.Moments()
	if err != nil {
		return st, fmt.Errorf("moments: %w", err)
	}

	// 3. Monte Carlo over the exact tabulated curve.
	rng := stats.NewRNG(cfg.Seed, fmt.Sprintf("char/%s/%d", cell.Name, state))
	var run stats.Running
	for i := 0; i < cfg.MCSamples; i++ {
		if i%mcCheckInterval == 0 {
			if err := lkerr.FromContext(ctx, "charlib.Characterize"); err != nil {
				return st, err
			}
		}
		l := mu + sigma*rng.NormFloat64()
		if l < sp.Min() {
			l = sp.Min()
		}
		run.Push(math.Exp(sp.Eval(l)))
	}
	st.MCMean = fault.Corrupt(fault.SiteCharMoments, run.Mean())
	st.MCStd = run.StdDev()
	for _, q := range []struct {
		name string
		v    float64
	}{
		{"MC mean", st.MCMean}, {"MC std", st.MCStd},
		{"fit mean", st.FitMean}, {"fit std", st.FitStd},
	} {
		if err := lkerr.CheckFinite("charlib.Characterize", q.name, q.v); err != nil {
			return st, err
		}
	}
	return st, nil
}

// FitABC fits ln X(L) = ln a + b·L + c·L² by least squares over the given
// channel lengths, where lnI evaluates ln X. It returns (a, b, c).
//
// The regression is performed in the centred/scaled variable
// z = (L − L̄)/s to keep the Vandermonde system well conditioned (raw L
// values cluster around 0.09 µm), then mapped back to (a, b, c).
func FitABC(ls []float64, lnI func(float64) float64) (a, b, c float64, err error) {
	if len(ls) < 3 {
		return 0, 0, 0, fmt.Errorf("charlib: FitABC needs ≥3 points, got %d", len(ls))
	}
	mean := stats.Mean(ls)
	scale := 0.0
	for _, l := range ls {
		scale += math.Abs(l - mean)
	}
	scale /= float64(len(ls))
	if scale == 0 {
		return 0, 0, 0, fmt.Errorf("charlib: FitABC with degenerate grid")
	}
	zs := make([]float64, len(ls))
	ys := make([]float64, len(ls))
	for i, l := range ls {
		zs[i] = (l - mean) / scale
		ys[i] = lnI(l)
	}
	// ln X = α0 + α1·z + α2·z².
	alpha, err := linalg.PolyFit(zs, ys, 2)
	if err != nil {
		return 0, 0, 0, err
	}
	// Map back: z = (L−m)/s ⇒
	//   c = α2/s², b = α1/s − 2α2·m/s², ln a = α0 − α1·m/s + α2·m²/s².
	c = alpha[2] / (scale * scale)
	b = alpha[1]/scale - 2*alpha[2]*mean/(scale*scale)
	lnA := alpha[0] - alpha[1]*mean/scale + alpha[2]*mean*mean/(scale*scale)
	return math.Exp(lnA), b, c, nil
}

// StateProbPins returns the probability of input state s when each input
// pin i is an independent Bernoulli with the given 1-probability — the
// heterogeneous generalization of StateProb used with propagated per-net
// signal probabilities.
func (c *CellChar) StateProbPins(s uint, pinProbs []float64) float64 {
	prob := 1.0
	for i := 0; i < c.NumInputs; i++ {
		p := 0.5
		if i < len(pinProbs) {
			p = pinProbs[i]
		}
		if s&(1<<uint(i)) != 0 {
			prob *= p
		} else {
			prob *= 1 - p
		}
	}
	return prob
}

// EffectiveStatsPins returns the state-weighted leakage moments of the
// cell under heterogeneous per-pin signal probabilities, plus the
// spatially correlated sigma (the state-weighted average of per-state
// sigmas) used by the simplified pairwise covariance.
func (c *CellChar) EffectiveStatsPins(pinProbs []float64, mc bool) (mean, std, corrSigma float64) {
	m, m2, cs := 0.0, 0.0, 0.0
	for i := range c.States {
		st := &c.States[i]
		w := c.StateProbPins(st.State, pinProbs)
		if w == 0 {
			continue
		}
		mu, sd := st.FitMean, st.FitStd
		if mc {
			mu, sd = st.MCMean, st.MCStd
		}
		m += w * mu
		m2 += w * (sd*sd + mu*mu)
		cs += w * sd
	}
	v := m2 - m*m
	if v < 0 {
		v = 0
	}
	return m, math.Sqrt(v), cs
}
