// Package gridmodel implements a grid-based spatial-correlation leakage
// estimator in the style of the late-mode prior work the paper builds on
// (Chang & Sapatnekar, DAC 2005 — the paper's reference [3]): the die is
// partitioned into a g×g grid of regions, the channel length is modelled
// as piecewise-constant per region with a region-to-region correlation
// matrix, and the full-chip mean/σ is aggregated over (region, cell type)
// pairs in O(R²·T²) instead of O(n²) over gates, at the cost of quantizing
// the correlation function to region centres.
//
// Within this repository it serves as the baseline the Random-Gate
// approach is contrasted with (the gridcmp experiment), and as a second
// independent cross-check of the estimators.
package gridmodel

import (
	"fmt"
	"math"

	"leakest/internal/charlib"
	"leakest/internal/linalg"
	"leakest/internal/lkerr"
	"leakest/internal/netlist"
	"leakest/internal/placement"
	"leakest/internal/spatial"
)

// Config controls grid-model construction.
type Config struct {
	// Lib is the characterized library.
	Lib *charlib.Library
	// Proc is the variation model; (µ, σ) must match the characterization.
	Proc *spatial.Process
	// GridDim is the number of regions per die edge (default 8).
	GridDim int
}

// Model is a constructed grid correlation model for one placement.
type Model struct {
	cfg     Config
	grid    placement.Grid
	regions int     // per edge
	rw, rh  float64 // region dimensions
	// corr is the region-to-region channel-length correlation matrix.
	corr *linalg.Matrix
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
// prior work), aggregated per (region, type). The placed design is trusted:
// it was checked where it entered the program (placement.Placement.Validate).
func (m *Model) Moments(nl *netlist.Netlist, pl *placement.Placement, signalProb float64) (mean, std float64, err error) {
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
