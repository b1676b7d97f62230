package chipmc

import (
	"context"
	"math/rand"
	"strconv"
	"time"

	"leakest/internal/fault"
	"leakest/internal/lkerr"
	"leakest/internal/placement"
	"leakest/internal/randvar"
	"leakest/internal/stats"
	"leakest/internal/telemetry"
)

// This file is the tiled field of DESIGN.md §16. The placement grid is
// partitioned into a Tiles×Tiles arrangement; each trial draws one
// chip-wide D2D deviate from its own stream (d2d#), then a WID-only field
// per tile from the tile's own circulant embedding and its own per-(tile,
// trial) stream. Field memory scales with the largest tile instead of the die —
// the monolithic FFT path walls out at the 4096² torus cap — which is what
// lifts the MC gate budget to DefaultMaxGatesTiled. The sampled law keeps
// the exact within-tile correlation and drops cross-tile WID correlation to
// the D2D floor; the conformance harness gates that approximation against
// an exact pairwise reference (internal/conformance, tiled gates).

// DefaultMaxGatesTiled is the default gate bound for the tiled sampler.
// Per-trial cost is ΣS_t log S_t over tile torus sizes plus O(n) gate
// evaluation; memory is O(n) gate state plus O(largest tile) field scratch
// per worker.
const DefaultMaxGatesTiled = 2000000

// tileSlot holds one tile's share of the design: which sampler geometry it
// uses and which gates (with their tile-local site indices) it covers.
type tileSlot struct {
	// sampler indexes tiledField.samplers; -1 for a tile with no gates.
	sampler int
	gates   []int
	sites   []int
}

// tiledField samples one chip-wide D2D deviate, then a WID-only field per
// tile from the tile's own circulant embedding. A primary trial reseeds for
// each stage — tile t's field from stages[t], the per-gate draws from
// stages[len(slots)] — so every stage is keyed by (Seed, trial); an IS trial
// (stages nil) draws every stage from its one trial stream, like the other
// IS fields.
type tiledField struct {
	perTrial
	sigmaD2D float64
	slots    []tileSlot
	samplers []*randvar.GridSampler
	stages   []stats.Stream
	bufs     []tiledBuf
}

// tiledBuf is one worker's field and scratch buffers, held per distinct
// sampler geometry — at most four under the largest-remainder partition —
// not per tile: the between-tile buffer pool of the §16 contract.
type tiledBuf struct {
	fields [][]float64
	scs    []*randvar.GridScratch
}

// fill draws the shared D2D deviate, then each tile's field in tile-index
// order; the D2D tilt moves only the shared deviate, exactly as on the
// monolithic grid field.
func (f *tiledField) fill(w int, rng *rand.Rand, ls []float64, trial int, tilt float64) (float64, error) {
	b := &f.bufs[w]
	if b.fields == nil {
		b.fields = make([][]float64, len(f.samplers))
		b.scs = make([]*randvar.GridScratch, len(f.samplers))
		for i, gs := range f.samplers {
			b.fields[i] = make([]float64, gs.Sites())
			b.scs[i] = gs.NewScratch()
		}
	}
	z0 := rng.NormFloat64()
	shift := f.sigmaD2D * (z0 + tilt)
	for ti := range f.slots {
		slot := &f.slots[ti]
		if slot.sampler < 0 {
			continue
		}
		field := b.fields[slot.sampler]
		if f.stages != nil {
			rng.Seed(f.stages[ti].SeedFor(trial))
		}
		if err := f.samplers[slot.sampler].SampleInto(rng, b.scs[slot.sampler], field); err != nil {
			return 0, err
		}
		for i, g := range slot.gates {
			ls[g] = field[slot.sites[i]] + shift
		}
	}
	if f.stages != nil {
		rng.Seed(f.stages[len(f.slots)].SeedFor(trial))
	}
	return z0, nil
}

// newTiledField partitions the placement, assigns gates to tiles, and
// builds one WID-only grid sampler per distinct tile geometry. It observes
// tile_duration_seconds per tile and chipmc_tiles_total per run.
func newTiledField(ctx context.Context, cfg Config, name string, pl *placement.Placement, workers int) (*tiledField, error) {
	const op = "chipmc.Run"
	grid := pl.Grid
	parts := placement.Partition(grid, cfg.Tiles)
	telemetry.Add("chipmc_tiles_total", int64(len(parts)))
	telemetry.SpanAttrInt(ctx, "chipmc.tiles", int64(len(parts)))

	// Row/column → tile-coordinate lookups from the partition edges.
	rowEdges := placement.TileEdges(grid.Rows, cfg.Tiles)
	colEdges := placement.TileEdges(grid.Cols, cfg.Tiles)
	rowTile := edgeLookup(rowEdges, grid.Rows)
	colTile := edgeLookup(colEdges, grid.Cols)
	tc := len(colEdges) - 1

	slots := make([]tileSlot, len(parts))
	for i := range slots {
		slots[i].sampler = -1
	}
	for g, s := range pl.Site {
		row, col := s/grid.Cols, s%grid.Cols
		ti := rowTile[row]*tc + colTile[col]
		t := parts[ti]
		local := (row-t.Row0)*t.Cols() + (col - t.Col0)
		slots[ti].gates = append(slots[ti].gates, g)
		slots[ti].sites = append(slots[ti].sites, local)
	}

	endSetup := telemetry.StartSpan(ctx, "chipmc.tile_setup")
	defer endSetup()
	widProc := cfg.Proc.WIDOnly()
	type dims struct{ rows, cols int }
	samplerIdx := make(map[dims]int)
	var samplers []*randvar.GridSampler
	for ti, t := range parts {
		if len(slots[ti].gates) == 0 {
			continue
		}
		start := time.Now()
		d := dims{t.Rows(), t.Cols()}
		idx, ok := samplerIdx[d]
		if !ok {
			sub := placement.Grid{Rows: d.rows, Cols: d.cols, SiteW: grid.SiteW, SiteH: grid.SiteH}
			gs, gerr := randvar.NewGridSamplerContext(ctx, widProc, sub)
			if gerr == nil {
				if ferr := fault.Failure(fault.SiteFFTSetup); ferr != nil {
					gs, gerr = nil, ferr
				}
			}
			if gerr != nil {
				return nil, lkerr.Wrap(lkerr.Numerical, op, gerr)
			}
			idx = len(samplers)
			samplers = append(samplers, gs)
			samplerIdx[d] = idx
		}
		slots[ti].sampler = idx
		if telemetry.MetricsOn() {
			telemetry.ObserveSeconds("tile_duration_seconds", time.Since(start).Seconds())
		}
	}

	stages := make([]stats.Stream, len(parts)+1)
	for ti := range parts {
		stages[ti] = stats.NewStream(cfg.Seed, "chipmc/"+name+"/tile"+strconv.Itoa(ti)+"/trial#")
	}
	stages[len(parts)] = stats.NewStream(cfg.Seed, "chipmc/"+name+"/tilegates#")
	return &tiledField{
		sigmaD2D: cfg.Proc.SigmaD2D,
		slots:    slots,
		samplers: samplers,
		stages:   stages,
		bufs:     make([]tiledBuf, workers),
	}, nil
}

// edgeLookup expands partition edges into a per-unit tile-coordinate table:
// out[i] is the tile row (or column) that unit i falls in.
func edgeLookup(edges []int, dim int) []int {
	out := make([]int, dim)
	for t := 0; t < len(edges)-1; t++ {
		for i := edges[t]; i < edges[t+1]; i++ {
			out[i] = t
		}
	}
	return out
}
