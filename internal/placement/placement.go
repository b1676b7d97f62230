// Package placement places netlist gates on the uniform rectangular site
// grid of the paper's full-chip model (Fig. 4): k rows × m columns of
// identical sites of size ΔW × ΔH, where a site's area is the average cell
// area including its share of routing. Distances between placed gates drive
// the spatial-correlation terms of the leakage variance.
package placement

import (
	"fmt"
	"math"
	"math/rand"
)

// DefaultSitePitch is the default site edge length in µm. At 2 µm × 2 µm a
// site corresponds to ≈250k placeable gates per mm², representative of
// 90 nm standard-cell densities with routing overhead.
const DefaultSitePitch = 2.0

// Grid is a k-rows × m-cols array of uniform sites.
type Grid struct {
	Rows, Cols   int
	SiteW, SiteH float64
}

// NewGrid builds the most nearly square grid with at least n sites for the
// given target aspect ratio W/H (aspect 1 gives a square array). The grid
// has Cols·Rows ≥ n with the smallest excess.
func NewGrid(n int, siteW, siteH, aspect float64) (Grid, error) {
	if n <= 0 {
		return Grid{}, fmt.Errorf("placement: site count %d must be positive", n)
	}
	if siteW <= 0 || siteH <= 0 {
		return Grid{}, fmt.Errorf("placement: non-positive site pitch %g×%g", siteW, siteH)
	}
	if aspect <= 0 {
		aspect = 1
	}
	// Want m·ΔW / (k·ΔH) ≈ aspect with k·m ≥ n.
	m := int(math.Round(math.Sqrt(float64(n) * aspect * siteH / siteW)))
	if m < 1 {
		m = 1
	}
	k := (n + m - 1) / m
	return Grid{Rows: k, Cols: m, SiteW: siteW, SiteH: siteH}, nil
}

// Sites returns the total number of sites.
func (g Grid) Sites() int { return g.Rows * g.Cols }

// W returns the die width m·ΔW in µm.
func (g Grid) W() float64 { return float64(g.Cols) * g.SiteW }

// H returns the die height k·ΔH in µm.
func (g Grid) H() float64 { return float64(g.Rows) * g.SiteH }

// Center returns the centre coordinates of the site at (row, col).
func (g Grid) Center(row, col int) (x, y float64) {
	return (float64(col) + 0.5) * g.SiteW, (float64(row) + 0.5) * g.SiteH
}

// Placement assigns each of n gates to a distinct site of a grid.
type Placement struct {
	Grid Grid
	// Site[i] is the site index (row-major) of gate i.
	Site []int
}

// Validate is the one check of a placed design: the placement covers
// exactly the netlist's gate count, every gate sits on a site of the grid,
// and no two gates share a site — the invariants the pair-distance code
// indexes by — in one O(n) pass with a bitset over the sites. It runs where
// a placement enters the program (core.ExtractSpec, chipmc.RunContext,
// netlist.WritePlaced); the code behind those doors trusts the placement.
func (p *Placement) Validate(gates int) error {
	if len(p.Site) != gates {
		return fmt.Errorf("placement: covers %d gates, netlist has %d", len(p.Site), gates)
	}
	sites := p.Grid.Sites()
	used := make([]uint64, (sites+63)/64)
	for g, s := range p.Site {
		if s < 0 || s >= sites {
			return fmt.Errorf("placement: gate %d on site %d outside the %d×%d grid",
				g, s, p.Grid.Rows, p.Grid.Cols)
		}
		w, bit := s/64, uint64(1)<<(s%64)
		if used[w]&bit != 0 {
			return fmt.Errorf("placement: gate %d shares site %d with an earlier gate", g, s)
		}
		used[w] |= bit
	}
	return nil
}

// RowMajor places n gates on the grid in row-major order.
func RowMajor(g Grid, n int) (*Placement, error) {
	if n > g.Sites() {
		return nil, fmt.Errorf("placement: %d gates exceed %d sites", n, g.Sites())
	}
	p := &Placement{Grid: g, Site: make([]int, n)}
	for i := range p.Site {
		p.Site[i] = i
	}
	return p, nil
}

// Random places n gates on distinct uniformly random sites of the grid —
// the placement model for the randomly generated circuits of §3.1.1.
func Random(rng *rand.Rand, g Grid, n int) (*Placement, error) {
	if n > g.Sites() {
		return nil, fmt.Errorf("placement: %d gates exceed %d sites", n, g.Sites())
	}
	perm := rng.Perm(g.Sites())
	p := &Placement{Grid: g, Site: perm[:n]}
	return p, nil
}

// Pos returns the coordinates of gate i in µm.
func (p *Placement) Pos(i int) (x, y float64) {
	s := p.Site[i]
	return p.Grid.Center(s/p.Grid.Cols, s%p.Grid.Cols)
}

// Dist returns the Euclidean centre-to-centre distance between gates i and
// j in µm.
func (p *Placement) Dist(i, j int) float64 {
	xi, yi := p.Pos(i)
	xj, yj := p.Pos(j)
	return math.Hypot(xi-xj, yi-yj)
}

// LagDist returns the centre-to-centre distance of two sites separated by
// dr rows and dc columns — the canonical distance of one (|Δrow|, |Δcol|)
// lag class. On a grid there are only Rows·Cols distinct classes, which the
// truth pass's per-lag covariances (core.TrueStats) and the
// circulant-embedding sampler (randvar) key off. At the default power-of-two site pitch the
// products below are exact, so LagDist agrees bitwise with the Dist of any
// site pair in the class.
func (g Grid) LagDist(dr, dc int) float64 {
	return math.Hypot(float64(dc)*g.SiteW, float64(dr)*g.SiteH)
}

// RowCol returns the grid row and column of gate i.
func (p *Placement) RowCol(i int) (row, col int) {
	s := p.Site[i]
	return s / p.Grid.Cols, s % p.Grid.Cols
}

// AutoGrid builds a square-aspect grid for n gates at the default site
// pitch — the common case throughout the experiments.
func AutoGrid(n int) (Grid, error) {
	return NewGrid(n, DefaultSitePitch, DefaultSitePitch, 1)
}
