package core

import (
	"fmt"
	"math"

	"leakest/internal/charlib"
	"leakest/internal/lkerr"
	"leakest/internal/spatial"
)

// Floorplan-level early estimation — an extension of the Random-Gate model
// to heterogeneous chips. The paper's model assumes one cell-usage
// histogram across the whole die; real chips have regions with very
// different populations (logic, SRAM arrays, register banks). A Floorplan
// is a set of non-overlapping rectangular blocks, each its own RG model;
// full-chip statistics combine exact intra-block variances (the linear
// method per block) with inter-block covariances aggregated over block
// tiles under the simplified ρ_leak = ρ_L mapping (§3.1.2 bounds that
// simplification below 2.8 %).

// Block is one rectangular region of the floorplan with its own cell
// population.
type Block struct {
	// Name labels the block in reports.
	Name string
	// Spec carries the block's histogram, gate count and dimensions; its
	// W/H are the block's dimensions.
	Spec DesignSpec
	// X, Y locate the block's lower-left corner on the die, in µm.
	X, Y float64
}

// FloorplanResult carries the combined statistics and the per-block parts.
type FloorplanResult struct {
	// Total is the full-chip result.
	Total Result
	// PerBlock lists each block's standalone statistics (intra-block
	// correlation only).
	PerBlock []Result
	// InterBlockCov is the total covariance contributed by cross-block
	// correlation, in A².
	InterBlockCov float64
}

// CorrMass returns the spatially correlated leakage sigma of one gate of
// the model's RG under the simplified mapping — the Σ w·σ aggregate used
// for cross-population covariances.
func (m *Model) CorrMass() float64 { return m.sumWSigma }

// EstimateFloorplan combines the blocks into full-chip statistics.
func EstimateFloorplan(lib *charlib.Library, proc *spatial.Process, blocks []Block, mode Mode) (FloorplanResult, error) {
	const op = "core.EstimateFloorplan"
	if len(blocks) == 0 {
		return FloorplanResult{}, lkerr.New(lkerr.InvalidInput, op, "empty floorplan")
	}
	// Geometry sanity: finite, non-negative placement, no overlaps.
	for i := range blocks {
		b := &blocks[i]
		if math.IsNaN(b.X) || math.IsNaN(b.Y) || math.IsInf(b.X, 0) || math.IsInf(b.Y, 0) {
			return FloorplanResult{}, lkerr.New(lkerr.InvalidInput, op,
				"block %q position (%g, %g) must be finite", b.Name, b.X, b.Y)
		}
		if b.X < 0 || b.Y < 0 {
			return FloorplanResult{}, lkerr.New(lkerr.InvalidInput, op, "block %q at negative position", b.Name)
		}
		if err := b.Spec.Validate(); err != nil {
			return FloorplanResult{}, lkerr.New(lkerr.InvalidInput, op, "block %q: %v", b.Name, err)
		}
		for j := 0; j < i; j++ {
			a := &blocks[j]
			if b.X < a.X+a.Spec.W && a.X < b.X+b.Spec.W &&
				b.Y < a.Y+a.Spec.H && a.Y < b.Y+b.Spec.H {
				return FloorplanResult{}, lkerr.New(lkerr.InvalidInput, op, "blocks %q and %q overlap", a.Name, b.Name)
			}
		}
	}

	out := FloorplanResult{}
	models := make([]*Model, len(blocks))
	mean := 0.0
	variance := 0.0
	for i := range blocks {
		m, err := NewModel(lib, proc, blocks[i].Spec, mode)
		if err != nil {
			return FloorplanResult{}, fmt.Errorf("core: block %q: %w", blocks[i].Name, err)
		}
		models[i] = m
		res, err := m.EstimateLinear()
		if err != nil {
			return FloorplanResult{}, fmt.Errorf("core: block %q: %w", blocks[i].Name, err)
		}
		res.Method = "block:" + blocks[i].Name
		out.PerBlock = append(out.PerBlock, res)
		mean += res.Mean
		variance += res.Std * res.Std
	}

	// Inter-block covariance: subdivide each block into tiles a fraction of
	// the correlation length, spread the block's correlated mass uniformly
	// over them, and sum tile-pair covariances at centre distances.
	if proc == nil {
		proc = lib.Process
	}
	tile := proc.EffectiveRange(0.5) / 4
	inter := 0.0
	type tileMass struct{ x, y, mass float64 }
	tilesOf := func(bi int) []tileMass {
		b := &blocks[bi]
		t := tile
		if t <= 0 || t > b.Spec.W {
			t = b.Spec.W
		}
		if t > b.Spec.H {
			t = b.Spec.H
		}
		nx := int(math.Ceil(b.Spec.W / t))
		ny := int(math.Ceil(b.Spec.H / t))
		total := float64(b.Spec.N) * models[bi].CorrMass()
		per := total / float64(nx*ny)
		out := make([]tileMass, 0, nx*ny)
		for ix := 0; ix < nx; ix++ {
			for iy := 0; iy < ny; iy++ {
				out = append(out, tileMass{
					x:    b.X + (float64(ix)+0.5)*b.Spec.W/float64(nx),
					y:    b.Y + (float64(iy)+0.5)*b.Spec.H/float64(ny),
					mass: per,
				})
			}
		}
		return out
	}
	tiles := make([][]tileMass, len(blocks))
	for i := range blocks {
		tiles[i] = tilesOf(i)
	}
	corr := proc.Prepare() // At is bitwise TotalCorr
	for i := range blocks {
		for j := i + 1; j < len(blocks); j++ {
			for _, ta := range tiles[i] {
				for _, tb := range tiles[j] {
					rho := corr.At(math.Hypot(ta.x-tb.x, ta.y-tb.y))
					if rho > 0 {
						inter += 2 * ta.mass * tb.mass * rho
					}
				}
			}
		}
	}
	variance += inter
	out.InterBlockCov = inter
	out.Total = Result{
		Mean:   mean,
		Std:    math.Sqrt(variance),
		Method: "floorplan",
		Note:   fmt.Sprintf("%d blocks, tile %.3g µm", len(blocks), tile),
	}
	return out, nil
}
