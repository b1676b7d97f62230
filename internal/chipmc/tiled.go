package chipmc

import (
	"context"
	"math/rand"
	"strconv"
	"time"

	"leakest/internal/fault"
	"leakest/internal/fft"
	"leakest/internal/lkerr"
	"leakest/internal/placement"
	"leakest/internal/randvar"
	"leakest/internal/stats"
	"leakest/internal/telemetry"
)

// This file is the tiled field of DESIGN.md §16. The placement grid is
// partitioned into a Tiles×Tiles arrangement; each tile draws WID-only
// fields from its own circulant embedding, in Dietrich–Newsam pairs: pair p
// fills one torus per tile from the tile's own per-(tile, pair) stream, and
// trials 2p and 2p+1 read its real and imaginary parts. Each trial then
// draws one chip-wide D2D deviate from its own trial stream. Field memory
// scales with the largest tile instead of the die — the monolithic FFT path
// walls out at the 4096² torus cap — which is what lifts the MC gate budget
// to DefaultMaxGatesTiled. The sampled law keeps the exact within-tile
// correlation and drops cross-tile WID correlation to the D2D floor; the
// conformance harness gates that approximation against an exact pairwise
// reference (internal/conformance, tiled gates).

// DefaultMaxGatesTiled is the default gate bound for the tiled sampler.
// Per-pair cost is ΣS_t log S_t over tile torus sizes, plus O(n) gate
// evaluation per trial; memory is O(n) gate state and pair fields plus
// O(largest tile) field scratch per worker.
const DefaultMaxGatesTiled = 2000000

// tileSlot holds one tile's share of the design: which sampler geometry it
// uses and which gates (with their tile-local site indices) it covers.
type tileSlot struct {
	// sampler indexes tiledField.samplers; -1 for a tile with no gates.
	sampler int
	gates   []int
	sites   []int
}

// tiledField samples the per-tile WID pair fields of pair p in begin, then
// one chip-wide D2D deviate per trial. Everything pair p draws comes from
// streams[t] keyed by p, so totals are bitwise invariant under the worker
// count; the primary and the IS trials differ only in those streams.
type tiledField struct {
	lnom, sd2d float64
	slots      []tileSlot
	samplers   []*randvar.GridSampler
	streams    []stats.Stream
	bufs       []tiledBuf
}

// tiledBuf is one worker's scratch, sized for the largest sampler geometry
// and reused across tiles — the between-tile buffer pool of the §16
// contract — plus the current pair's two per-gate WID fields.
type tiledBuf struct {
	rng     *rand.Rand
	torus   []complex128
	scratch []complex128
	field   []float64
	wid     [2][]float64 // L_nom + WID, indexed by gate; [0] real channel, [1] imaginary
}

func (f *tiledField) block() int { return 2 }

// begin draws pair lo/2 tile by tile and gathers both of its channels,
// offset by L_nom, onto the tile's gates.
func (f *tiledField) begin(w, lo int) error {
	b := &f.bufs[w]
	if b.rng == nil {
		var tlen, slen, sites, gates int
		for _, gs := range f.samplers {
			tm, tn := gs.TorusDims()
			tlen = max(tlen, gs.TorusLen())
			slen = max(slen, fft.Scratch2DLen(tm, tn))
			sites = max(sites, gs.Sites())
		}
		for _, slot := range f.slots {
			gates += len(slot.gates)
		}
		b.rng = rand.New(rand.NewSource(1))
		b.torus = make([]complex128, tlen)
		b.scratch = make([]complex128, slen)
		b.field = make([]float64, sites)
		b.wid = [2][]float64{make([]float64, gates), make([]float64, gates)}
	}
	for ti := range f.slots {
		slot := &f.slots[ti]
		if slot.sampler < 0 {
			continue
		}
		gs := f.samplers[slot.sampler]
		torus := b.torus[:gs.TorusLen()]
		b.rng.Seed(f.streams[ti].SeedFor(lo / 2))
		gs.FillPairSpectrum(b.rng, torus)
		if err := inversePair(gs, torus, b.scratch); err != nil {
			return err
		}
		field := b.field[:gs.Sites()]
		for ch, wid := range b.wid {
			gs.ExtractPair(torus, ch, field)
			for i, g := range slot.gates {
				wid[g] = f.lnom + field[slot.sites[i]]
			}
		}
	}
	return nil
}

// fill draws the trial's shared D2D deviate and adds it to the trial's
// channel of the pair's WID field; the tilt moves only the shared deviate,
// exactly as on the monolithic grid field.
func (f *tiledField) fill(w int, rng *rand.Rand, ls []float64, trial int, tilt float64) (float64, error) {
	z0 := rng.NormFloat64()
	shift := f.sd2d * (z0 + tilt)
	for g, v := range f.bufs[w].wid[trial%2] {
		ls[g] = v + shift
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
			gs, gerr := randvar.NewGridSamplerContext(ctx, cfg.Proc, sub)
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

	return &tiledField{
		lnom:     cfg.Proc.LNominal,
		sd2d:     cfg.Proc.SigmaD2D,
		slots:    slots,
		samplers: samplers,
		streams:  tileStreams(cfg, name, len(parts), "pair#"),
		bufs:     make([]tiledBuf, workers),
	}, nil
}

// tileStreams keys each tile's pair draws: tile t's pair p seeds from
// stream "chipmc/<name>/tile<t>/<label>" at index p.
func tileStreams(cfg Config, name string, tiles int, label string) []stats.Stream {
	streams := make([]stats.Stream, tiles)
	for ti := range streams {
		streams[ti] = stats.NewStream(cfg.Seed, "chipmc/"+name+"/tile"+strconv.Itoa(ti)+"/"+label)
	}
	return streams
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
