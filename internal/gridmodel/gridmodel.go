// Package gridmodel implements a grid-based spatial-correlation leakage
// estimator in the style of the late-mode prior work the paper builds on
// (Chang & Sapatnekar, DAC 2005 — the paper's reference [3]): the die is
// partitioned into a g×g grid of regions, the channel length is modelled
// as piecewise-constant per region with a region-to-region correlation
// matrix, and the region variables are reduced to a small set of
// independent factors by principal-component analysis.
//
// Two capabilities result:
//
//   - moments: full-chip mean/σ with O(R²·T²) aggregation over regions and
//     cell types (instead of O(n²) over gates), at the cost of quantizing
//     the correlation function to region centres;
//   - distribution: cheap Monte-Carlo over the low-dimensional factor
//     space (no n×n Cholesky), yielding full-chip leakage quantiles.
//
// Within this repository it serves as the baseline family the Random-Gate
// approach is contrasted with, and as a second independent cross-check of
// the estimators.
package gridmodel

import (
	"context"
	"fmt"
	"math"
	"sort"

	"leakest/internal/charlib"
	"leakest/internal/fault"
	"leakest/internal/linalg"
	"leakest/internal/lkerr"
	"leakest/internal/netlist"
	"leakest/internal/placement"
	"leakest/internal/spatial"
	"leakest/internal/stats"
)

// Config controls grid-model construction.
type Config struct {
	// Lib is the characterized library.
	Lib *charlib.Library
	// Proc is the variation model; (µ, σ) must match the characterization.
	Proc *spatial.Process
	// GridDim is the number of regions per die edge (default 8).
	GridDim int
	// PCAFraction is the spectrum fraction the factor reduction keeps
	// (default 0.99).
	PCAFraction float64
}

// Model is a constructed grid correlation model for one placement.
type Model struct {
	cfg     Config
	grid    placement.Grid
	regions int     // per edge
	rw, rh  float64 // region dimensions
	// corr is the region-to-region channel-length correlation matrix.
	corr *linalg.Matrix
	// factors is the PCA factor matrix (regions² × k), scaled to the total
	// channel-length sigma. Computed lazily: only the factor-space sampler
	// needs the (cubic-cost) eigendecomposition.
	factors *linalg.Matrix
	// k is the retained factor count (0 until the factors are built).
	k int
}

// New builds the region correlation model for a die of the given grid.
func New(cfg Config, dieGrid placement.Grid) (*Model, error) {
	if cfg.Lib == nil || cfg.Proc == nil {
		return nil, fmt.Errorf("gridmodel: Lib and Proc are required")
	}
	if err := cfg.Proc.Validate(); err != nil {
		return nil, fmt.Errorf("gridmodel: %w", err)
	}
	if math.Abs(cfg.Proc.LNominal-cfg.Lib.Process.LNominal) > 1e-12 ||
		math.Abs(cfg.Proc.TotalSigma()-cfg.Lib.Process.TotalSigma()) > 1e-12 {
		return nil, fmt.Errorf("gridmodel: process inconsistent with characterization")
	}
	if cfg.GridDim == 0 {
		cfg.GridDim = 8
	}
	if cfg.GridDim < 1 || cfg.GridDim > 64 {
		return nil, fmt.Errorf("gridmodel: grid dimension %d outside [1, 64]", cfg.GridDim)
	}
	if cfg.PCAFraction == 0 {
		cfg.PCAFraction = 0.99
	}

	g := cfg.GridDim
	r := g * g
	m := &Model{
		cfg:     cfg,
		grid:    dieGrid,
		regions: g,
		rw:      dieGrid.W() / float64(g),
		rh:      dieGrid.H() / float64(g),
	}
	// Region-centre correlation matrix of the *total* channel-length
	// variation (D2D floor included).
	m.corr = linalg.NewMatrix(r, r)
	centers := make([][2]float64, r)
	for i := 0; i < r; i++ {
		centers[i] = [2]float64{
			(float64(i%g) + 0.5) * m.rw,
			(float64(i/g) + 0.5) * m.rh,
		}
	}
	for i := 0; i < r; i++ {
		m.corr.Set(i, i, 1)
		for j := i + 1; j < r; j++ {
			d := math.Hypot(centers[i][0]-centers[j][0], centers[i][1]-centers[j][1])
			rho := cfg.Proc.TotalCorr(d)
			m.corr.Set(i, j, rho)
			m.corr.Set(j, i, rho)
		}
	}
	return m, nil
}

// buildFactors performs the PCA factor reduction on first use, scaled by
// σ_L so that region L = µ + factors·z with z ~ N(0, I).
func (m *Model) buildFactors() error {
	if m.factors != nil {
		return nil
	}
	b, k, err := linalg.PCAFactors(m.corr, m.cfg.PCAFraction)
	if err != nil {
		return fmt.Errorf("gridmodel: PCA: %w", err)
	}
	r := m.regions * m.regions
	sigma := m.cfg.Proc.TotalSigma()
	m.factors = linalg.NewMatrix(r, k)
	for i := 0; i < r; i++ {
		for c := 0; c < k; c++ {
			m.factors.Set(i, c, b.At(i, c)*sigma)
		}
	}
	m.k = k
	return nil
}

// Regions returns the per-edge region count.
func (m *Model) Regions() int { return m.regions }

// Factors returns the retained factor count after PCA reduction, building
// the factorization if needed. It returns 0 if the reduction fails (the
// sampler reports the underlying error).
func (m *Model) Factors() int {
	if err := m.buildFactors(); err != nil {
		return 0
	}
	return m.k
}

// regionOf maps a die coordinate to its region index.
func (m *Model) regionOf(x, y float64) int {
	cx := int(x / m.rw)
	cy := int(y / m.rh)
	if cx >= m.regions {
		cx = m.regions - 1
	}
	if cy >= m.regions {
		cy = m.regions - 1
	}
	return cy*m.regions + cx
}

// Moments computes the full-chip leakage mean and standard deviation of a
// placed netlist under the grid model: per-gate effective moments at the
// signal probability, pairwise covariances through the region-quantized
// correlation with the simplified ρ_leak = ρ_L mapping (as in the MC-mode
// prior work), aggregated per (region, type).
func (m *Model) Moments(nl *netlist.Netlist, pl *placement.Placement, signalProb float64) (mean, std float64, err error) {
	n := len(nl.Gates)
	if n == 0 {
		return 0, 0, fmt.Errorf("gridmodel: empty netlist")
	}
	if len(pl.Site) != n {
		return 0, 0, fmt.Errorf("gridmodel: placement covers %d gates, netlist has %d", len(pl.Site), n)
	}
	if err := pl.Validate(); err != nil {
		return 0, 0, lkerr.Wrap(lkerr.InvalidInput, "gridmodel.Moments", err)
	}
	if signalProb < 0 || signalProb > 1 {
		return 0, 0, fmt.Errorf("gridmodel: signal probability %g outside [0, 1]", signalProb)
	}
	types := nl.SortedTypes()
	tIdx := make(map[string]int, len(types))
	mus := make([]float64, len(types))
	mixVar := make([]float64, len(types))  // full per-gate variance (diagonal)
	corrSig := make([]float64, len(types)) // L-correlated sigma (off-diagonal)
	for i, typ := range types {
		tIdx[typ] = i
		cc, err := m.cfg.Lib.Cell(typ)
		if err != nil {
			return 0, 0, fmt.Errorf("gridmodel: %w", err)
		}
		mu, sd := cc.EffectiveStats(signalProb, false)
		mus[i] = mu
		mixVar[i] = sd * sd
		// Only the channel-length-induced part of a gate's spread is
		// spatially correlated; the state-choice component is independent
		// across gates. Under the simplified ρ_leak = ρ_L mapping this is
		// the state-weighted average of the per-state sigmas.
		s := 0.0
		for j := range cc.States {
			s += cc.StateProb(cc.States[j].State, signalProb) * cc.States[j].FitStd
		}
		corrSig[i] = s
	}
	// Aggregate correlated-σ mass per region: s[r] = Σ_{gates in r} σ_g.
	r := m.regions * m.regions
	sMass := make([]float64, r)
	selfCorr2 := make([]float64, r) // Σ corrSig² per region, to exclude a=b
	variance := 0.0
	for g, gate := range nl.Gates {
		ti := tIdx[gate.Type]
		mean += mus[ti]
		variance += mixVar[ti]
		x, y := pl.Pos(g)
		ri := m.regionOf(x, y)
		sMass[ri] += corrSig[ti]
		selfCorr2[ri] += corrSig[ti] * corrSig[ti]
	}
	// Off-diagonal: Σ_{a≠b} σ_a σ_b ρ(region_a, region_b)
	// = Σ_{ri,rj} s[ri]·s[rj]·ρ_ij with the a=b self terms excluded;
	// same-region gate pairs use ρ = 1 under the quantization.
	for ri := 0; ri < r; ri++ {
		if sMass[ri] == 0 {
			continue
		}
		variance += sMass[ri]*sMass[ri] - selfCorr2[ri]
		for rj := ri + 1; rj < r; rj++ {
			if sMass[rj] == 0 {
				continue
			}
			variance += 2 * sMass[ri] * sMass[rj] * m.corr.At(ri, rj)
		}
	}
	if variance < 0 {
		variance = 0
	}
	std = math.Sqrt(variance)
	if err := lkerr.CheckFinite("gridmodel.Moments", "mean", mean); err != nil {
		return 0, 0, err
	}
	if err := lkerr.CheckFinite("gridmodel.Moments", "std", std); err != nil {
		return 0, 0, err
	}
	return mean, std, nil
}

// DistResult summarizes a factor-space Monte Carlo.
type DistResult struct {
	Mean, Std float64
	Q05, Q95  float64
	Samples   int
	// Factors is the sampled dimension (after PCA truncation).
	Factors int
}

// SampleDistribution draws the full-chip leakage distribution by sampling
// the PCA factor space: z ~ N(0, I_k) gives the region channel lengths,
// each gate's leakage is evaluated from its characterization curve at its
// region's L, and states are sampled from the signal probability. The cost
// per trial is O(n + R·k) — no n×n factorization.
func (m *Model) SampleDistribution(nl *netlist.Netlist, pl *placement.Placement, signalProb float64, samples int, seed int64) (DistResult, error) {
	return m.SampleDistributionCtx(context.Background(), nl, pl, signalProb, samples, seed)
}

// SampleDistributionCtx is SampleDistribution with cancellation: ctx is
// checked once per factor-space trial.
func (m *Model) SampleDistributionCtx(ctx context.Context, nl *netlist.Netlist, pl *placement.Placement, signalProb float64, samples int, seed int64) (DistResult, error) {
	n := len(nl.Gates)
	if n == 0 {
		return DistResult{}, fmt.Errorf("gridmodel: empty netlist")
	}
	if len(pl.Site) != n {
		return DistResult{}, fmt.Errorf("gridmodel: placement covers %d gates, netlist has %d", len(pl.Site), n)
	}
	if err := pl.Validate(); err != nil {
		return DistResult{}, lkerr.Wrap(lkerr.InvalidInput, "gridmodel.SampleDistribution", err)
	}
	if samples < 10 {
		return DistResult{}, fmt.Errorf("gridmodel: %d samples too few", samples)
	}
	if signalProb < 0 || signalProb > 1 {
		return DistResult{}, fmt.Errorf("gridmodel: signal probability %g outside [0, 1]", signalProb)
	}
	if err := m.buildFactors(); err != nil {
		return DistResult{}, err
	}
	// Per-gate state tables and region assignment.
	type gateInfo struct {
		states []*charlib.StateChar
		cum    []float64
		region int
	}
	gates := make([]gateInfo, n)
	for g, gate := range nl.Gates {
		cc, err := m.cfg.Lib.Cell(gate.Type)
		if err != nil {
			return DistResult{}, fmt.Errorf("gridmodel: %w", err)
		}
		gi := gateInfo{}
		cum := 0.0
		for i := range cc.States {
			p := cc.StateProb(cc.States[i].State, signalProb)
			if p == 0 {
				continue
			}
			cum += p
			gi.states = append(gi.states, &cc.States[i])
			gi.cum = append(gi.cum, cum)
		}
		if len(gi.states) == 0 {
			return DistResult{}, fmt.Errorf("gridmodel: gate %d has no reachable states", g)
		}
		gi.cum[len(gi.cum)-1] = 1
		x, y := pl.Pos(g)
		gi.region = m.regionOf(x, y)
		gates[g] = gi
	}

	r := m.regions * m.regions
	rng := stats.NewRNG(seed, "gridmodel/"+nl.Name)
	z := make([]float64, m.k)
	ls := make([]float64, r)
	totals := make([]float64, samples)
	var run stats.Running
	mu := m.cfg.Proc.LNominal
	lMin := 0.3 * mu // clamp against deep-tail extrapolation
	for trial := 0; trial < samples; trial++ {
		if err := lkerr.FromContext(ctx, "gridmodel.SampleDistribution"); err != nil {
			return DistResult{}, err
		}
		fault.Hit(fault.SiteGridTrial)
		for i := range z {
			z[i] = rng.NormFloat64()
		}
		for ri := 0; ri < r; ri++ {
			row := m.factors.Row(ri)
			l := mu
			for c, zc := range z {
				l += row[c] * zc
			}
			if l < lMin {
				l = lMin
			}
			ls[ri] = l
		}
		total := 0.0
		for g := range gates {
			gi := &gates[g]
			st := gi.states[0]
			if len(gi.states) > 1 {
				u := rng.Float64()
				idx := sort.SearchFloat64s(gi.cum, u)
				if idx >= len(gi.states) {
					idx = len(gi.states) - 1
				}
				st = gi.states[idx]
			}
			total += st.Leakage(ls[gi.region])
		}
		total = fault.Corrupt(fault.SiteGridTrial, total)
		totals[trial] = total
		run.Push(total)
	}
	res := DistResult{
		Mean:    run.Mean(),
		Std:     run.StdDev(),
		Q05:     stats.Quantile(totals, 0.05),
		Q95:     stats.Quantile(totals, 0.95),
		Samples: samples,
		Factors: m.k,
	}
	if err := lkerr.CheckFinite("gridmodel.SampleDistribution", "mean", res.Mean); err != nil {
		return DistResult{}, err
	}
	if err := lkerr.CheckFinite("gridmodel.SampleDistribution", "std", res.Std); err != nil {
		return DistResult{}, err
	}
	return res, nil
}
