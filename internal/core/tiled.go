package core

import (
	"context"
	"math"

	"leakest/internal/lkerr"
	"leakest/internal/placement"
	"leakest/internal/telemetry"
)

// This file implements the tiled (hierarchical) linear estimator of
// DESIGN.md §16: the die is partitioned into a T×T arrangement of tiles,
// per-tile moments come from the linear method on each tile's sub-grid, and
// the tiles are combined through the exact inter-tile covariance — every
// ordered site pair belongs to exactly one (tile, tile) pair, and regrouping
// those pair populations by lag reproduces the monolithic Eq. 17
// multiplicities integer-for-integer — so the tiled result is bitwise
// identical to the monolithic one at any tile count, and the tiles'
// standalone moments come out of the same lag pass.

// TileStat is the per-tile moment record the tiled estimator attaches to
// Result.TileStats: the tile's position in the tile arrangement, its gate
// count, and its standalone linear-method moments.
type TileStat struct {
	// Index is the tile's position in row-major tile order.
	Index int `json:"index"`
	// Row and Col locate the tile in the tile arrangement (not site units).
	Row int `json:"row"`
	Col int `json:"col"`
	// Gates is the number of gates attributed to the tile.
	Gates int `json:"gates"`
	// Mean and Std are the tile's standalone full-tile moments in amperes,
	// from the linear method on the tile's own sub-grid.
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
}

// tilesAcross recovers the tile-arrangement width from a row-major
// partition: the tiles of the first tile row share Row0.
func tilesAcross(parts []placement.Tile) int {
	n := 0
	for n < len(parts) && parts[n].Row0 == parts[0].Row0 {
		n++
	}
	return n
}

// allocateTileGates distributes n gates over the tiles proportionally to
// their site counts with the largest-remainder rule (ties broken by tile
// index), so the allocation is deterministic and sums to n exactly.
func allocateTileGates(n int, tiles []placement.Tile) []int {
	total := int64(0)
	for _, t := range tiles {
		total += int64(t.Sites())
	}
	counts := make([]int, len(tiles))
	if total == 0 {
		return counts
	}
	rems := make([]int64, len(tiles))
	assigned := 0
	for i, t := range tiles {
		share := int64(n) * int64(t.Sites())
		counts[i] = int(share / total)
		rems[i] = share % total
		assigned += counts[i]
	}
	for assigned < n {
		best := -1
		for i, r := range rems {
			if r > 0 && (best < 0 || r > rems[best]) {
				best = i
			}
		}
		if best < 0 {
			best = 0
		}
		counts[best]++
		rems[best] = -1
		assigned++
	}
	return counts
}

// TiledPartitionLen reports how many tiles EstimateTiledCtx produces for a
// tiles-per-side request on this model's RG array — callers supplying their
// own per-tile gate counts (e.g. the streaming estimator) use it to check
// their partition matches before handing the counts over.
func (m *Model) TiledPartitionLen(tiles int) int {
	rows, cols := m.modelGrid()
	return (len(placement.TileEdges(rows, tiles)) - 1) * (len(placement.TileEdges(cols, tiles)) - 1)
}

// tileGrid partitions the model's RG array into the tile arrangement for
// the requested tile count and validates the optional per-tile gate
// allocation, falling back to the proportional rule when none is given.
func (m *Model) tileGrid(tiles int, tileGates []int) (rows, cols int, parts []placement.Tile, counts []int, err error) {
	if tiles < 1 {
		return 0, 0, nil, nil, lkerr.New(lkerr.InvalidInput, "core.EstimateTiled",
			"tile count must be ≥ 1, got %d", tiles)
	}
	rows, cols = m.modelGrid()
	grid := placement.Grid{Rows: rows, Cols: cols,
		SiteW: m.Spec.W / float64(cols), SiteH: m.Spec.H / float64(rows)}
	parts = placement.Partition(grid, tiles)
	if tileGates != nil {
		if len(tileGates) != len(parts) {
			return 0, 0, nil, nil, lkerr.New(lkerr.InvalidInput, "core.EstimateTiled",
				"per-tile gate counts: got %d entries, tile partition has %d", len(tileGates), len(parts))
		}
		sum := 0
		for i, c := range tileGates {
			if c < 0 {
				return 0, 0, nil, nil, lkerr.New(lkerr.InvalidInput, "core.EstimateTiled",
					"per-tile gate count %d is negative (%d)", i, c)
			}
			sum += c
		}
		if sum != m.Spec.N {
			return 0, 0, nil, nil, lkerr.New(lkerr.InvalidInput, "core.EstimateTiled",
				"per-tile gate counts sum to %d, spec has %d gates", sum, m.Spec.N)
		}
		counts = tileGates
	} else {
		counts = allocateTileGates(m.Spec.N, parts)
	}
	return rows, cols, parts, counts, nil
}

// EstimateTiledCtx computes the full-chip statistics with the tiled linear
// method: the die is partitioned into a tiles×tiles arrangement, per-tile
// moments come from the linear method on each tile's own sub-grid (reported
// in Result.TileStats), and the global moments combine the tiles through the
// exact inter-tile pair populations, which regroup by lag into the
// monolithic ones integer for integer — bitwise identical to
// the monolithic EstimateLinear at every tile and worker count. One lag pass
// serves both: each lag's covariance is evaluated once and added to the
// global sum and to the lag box of every tile shape that holds it, so the
// tiled estimate evaluates exactly the lags the linear one does. The lag
// loop checks ctx once per grid column.
func (m *Model) EstimateTiledCtx(ctx context.Context, tiles int, tileGates []int) (Result, error) {
	ctx, end := timeMethod(ctx, "linear-tiled", "estimate.linear-tiled")
	defer end()
	k, cols, parts, counts, err := m.tileGrid(tiles, tileGates)
	if err != nil {
		return Result{}, err
	}
	telemetry.SpanAttrInt(ctx, "tiles", int64(len(parts)))
	boxes, shapeOf := tileBoxes(parts)
	// The lag populations assembled from the tiles equal the monolithic
	// ones integer for integer (TestTileLagCountsClosedForm), so the lag
	// sum — and the result — is bitwise EstimateLinear's.
	variance, boxOff, note, err := m.latticeVariance(ctx, "core.EstimateTiled", "estimate.linear-tiled", k, cols, boxes)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Mean:      float64(m.Spec.N) * m.mu,
		Std:       math.Sqrt(variance),
		Method:    "linear-tiled",
		GridRows:  k,
		GridCols:  cols,
		Note:      note,
		TileStats: m.tileStats(parts, counts, shapeOf, boxOff),
	}.checkFinite("core.EstimateTiled")
}

// tileBoxes returns the lag box of each distinct tile shape — at most four
// (rows, cols) combinations under placement.TileEdges, whose tile sides
// differ by at most one site — and each tile's index into them.
func tileBoxes(parts []placement.Tile) (boxes []lagBox, shapeOf []int) {
	shapeOf = make([]int, len(parts))
	for idx, t := range parts {
		b := 0
		for b < len(boxes) && (boxes[b].cols != t.Cols() || boxes[b].rows != t.Rows()) {
			b++
		}
		if b == len(boxes) {
			boxes = append(boxes, lagBox{rows: t.Rows(), cols: t.Cols()})
		}
		shapeOf[idx] = b
	}
	return boxes, shapeOf
}

// tileStats computes each tile's standalone linear-method moments from the
// off-diagonal lag sum of its shape, boxOff[shapeOf[tile]], scaled for the
// tile's occupancy.
func (m *Model) tileStats(parts []placement.Tile, counts, shapeOf []int, boxOff []float64) []TileStat {
	across := tilesAcross(parts)
	out := make([]TileStat, len(parts))
	for idx, t := range parts {
		nt, st := counts[idx], t.Sites()
		off := boxOff[shapeOf[idx]]
		if st != nt {
			occ := 0.0
			if nt > 1 && st > 1 {
				occ = float64(nt) * float64(nt-1) / (float64(st) * float64(st-1))
			}
			off *= occ
		}
		out[idx] = TileStat{
			Index: idx,
			Row:   idx / across,
			Col:   idx % across,
			Gates: nt,
			Mean:  float64(nt) * m.mu,
			Std:   math.Sqrt(float64(nt)*m.variance + off),
		}
	}
	return out
}
