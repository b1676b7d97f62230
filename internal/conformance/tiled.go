package conformance

import (
	"bytes"
	"context"
	"fmt"

	"leakest/internal/charlib"
	"leakest/internal/chipmc"
	"leakest/internal/core"
	"leakest/internal/netlist"
	"leakest/internal/placement"
	"leakest/internal/spatial"
	"leakest/internal/stats"
)

// The tiled-fixtures and tiled-mc stages gate the DESIGN.md §16 tiled
// pipeline:
//
//  1. Exactness — on every fixture the tiled linear estimator must equal
//     the monolithic linear estimator bitwise (ULP-class Exact bounds) at
//     each tile count, stay bitwise invariant across tile counts and
//     worker counts, and keep its per-tile bookkeeping consistent.
//  2. Streaming — per-tile gate counts accumulated from a leakest-stream
//     serialization must reproduce the in-memory result bitwise, so the
//     O(tile)-memory reader is moment-preserving by construction.
//  3. Envelope — the tiled quadrature estimator (per-tile Eq. 20 plus
//     centroid cross terms) must track the monolithic integral within a
//     recorded envelope.
//  4. Sampled law — the tiled Monte Carlo must match an exact serial
//     pairwise reference of its own law (full TotalCorr within a tile, the
//     D2D CorrFloor across tiles) within z·SE, and be bitwise worker-
//     invariant.
//
// The self-check proves these gates have teeth with three mutation
// targets: "tiled" scales every tiled analytic result, "tile-count" scales
// only the middle tile count of the invariance sweep, and "tiled-mc" scales
// the tiled Monte-Carlo moments.

// tiledTileCounts is the tile-count sweep of the exactness gates. The
// values are mutually coprime with the fixture grids' typical dimensions,
// so uneven largest-remainder partitions are exercised, not just even
// splits.
var tiledTileCounts = []int{2, 3, 5}

// tiledMutationMid is the tile count the "tile-count" mutation target
// perturbs — the middle of the sweep, so both the invariance chain and the
// monolithic comparison see the defect.
const tiledMutationMid = 3

// runTiledFixture runs the analytic tiled gates on one fixture.
func (h *harness) runTiledFixture(ctx context.Context, fx Fixture) error {
	n := fx.N()
	m, err := h.fixtureModel(ctx, fx)
	if err != nil {
		return err
	}
	lin, err := m.EstimateLinearCtx(ctx)
	if err != nil {
		return err
	}

	var prev core.Result
	for i, t := range tiledTileCounts {
		res, err := m.EstimateTiledCtx(ctx, t, nil)
		if err != nil {
			return err
		}
		h.mutate("tiled", &res.Mean, &res.Std)
		if t == tiledMutationMid {
			h.mutate("tile-count", &res.Mean, &res.Std)
		}
		name := fmt.Sprintf("tiled/t%d", t)
		h.check(fx.Name, name+"-mean-vs-monolithic", KindExact, res.Mean, lin.Mean, Exact(),
			"tiled mean is the same n·µ_XI sum")
		h.check(fx.Name, name+"-std-vs-monolithic", KindExact, res.Std, lin.Std, Exact(),
			"ordered-pair lag regrouping over tile intervals is integer-exact (§16)")
		gates := 0
		for _, ts := range res.TileStats {
			gates += ts.Gates
		}
		h.checkBehavior(fx.Name, name+"-gate-partition", gates == n,
			fmt.Sprintf("per-tile gate counts sum to %d, spec has %d", gates, n))
		tileMean := 0.0
		for _, ts := range res.TileStats {
			tileMean += ts.Mean
		}
		h.check(fx.Name, name+"-tile-mean-additivity", KindExact, tileMean, lin.Mean, Exact(),
			"tile means are linear in the gate counts and must sum to the chip mean")
		if i > 0 {
			h.checkBehavior(fx.Name, fmt.Sprintf("tiled/t%d-invariant-vs-t%d", t, tiledTileCounts[i-1]),
				res.Mean == prev.Mean && res.Std == prev.Std,
				"tiled moments must be bitwise invariant in the tile count")
		}
		prev = res
	}

	// Worker invariance: the serial tiled run must reproduce the pooled one
	// bitwise (prev holds the last sweep result at cfg.Workers).
	m.Workers = 1
	serial, err := m.EstimateTiledCtx(ctx, tiledTileCounts[len(tiledTileCounts)-1], nil)
	if err != nil {
		return err
	}
	m.Workers = h.cfg.Workers
	h.mutate("tiled", &serial.Mean, &serial.Std)
	h.checkBehavior(fx.Name, "tiled/worker-invariance",
		serial.Mean == prev.Mean && serial.Std == prev.Std,
		"tiled moments must be bitwise identical at any worker count")

	// Tiled quadrature: exact mean, σ within the recorded integral envelope
	// plus the centroid-cross-term allowance measured in the core tests.
	ti, err := m.EstimateTiledIntegral2DCtx(ctx, tiledMutationMid, nil)
	if err != nil {
		return err
	}
	h.mutate("tiled", &ti.Mean, &ti.Std)
	h.check(fx.Name, "tiled/integral-mean-identity", KindExact, ti.Mean, lin.Mean, Exact(), "")
	intBound := fx.IntErrBoundPct
	if intBound == 0 {
		intBound, _ = RecordedEnvelope("e7.integral_err", n)
	}
	h.check(fx.Name, "tiled/integral-std-vs-linear", KindApprox, ti.Std, lin.Std,
		RelPct(intBound+5),
		"per-tile Eq. 20 plus centroid cross terms; integral envelope + 5 pp centroid allowance")
	return nil
}

// tiledMCFixture builds the placed design the sampled-law gates run on: a
// mixed-cell random circuit on a 15×15 grid under a short-range kernel
// (λ = 3 µm, hard range 12 µm — shorter than the 3-tile tile side), so the
// cross-tile covariance the tiled law floors at CorrFloor is a real but
// small term. Always built at DefaultSeed so the geometry is stable at any
// harness seed; cfg.Seed varies only the trial streams.
func tiledMCFixture(lib *charlib.Library) (*core.Model, *netlist.Netlist, *placement.Placement, error) {
	base := spatial.Default90nm()
	proc := &spatial.Process{
		LNominal: base.LNominal,
		SigmaD2D: base.SigmaD2D,
		SigmaWID: base.SigmaWID,
		SigmaVt:  base.SigmaVt,
		WIDCorr:  spatial.TruncatedExpCorr{Lambda: 3, R: 12},
	}
	hist, err := stats.NewHistogram(map[string]float64{"INV_X1": 2, "NAND2_X1": 2, "NOR2_X1": 1})
	if err != nil {
		return nil, nil, nil, err
	}
	const n = 225
	nl, pl, err := placedCircuit(lib, DefaultSeed, "tiled-mc", "conf-tiled", n, 8, hist, 1)
	if err != nil {
		return nil, nil, nil, err
	}
	spec, err := core.ExtractSpec(nl, pl, 0.5)
	if err != nil {
		return nil, nil, nil, err
	}
	m, err := core.NewModel(lib, proc, spec, core.Analytic)
	if err != nil {
		return nil, nil, nil, err
	}
	return m, nl, pl, nil
}

// serialTiledTruthRef computes the exact first two moments of the tiled
// Monte-Carlo law by a plain serial pair sum: within a tile the pair
// correlation is the process TotalCorr at the gate distance; across tiles
// it is the D2D floor, because the tiled sampler draws independent WID
// fields per tile on top of one shared D2D deviate.
func serialTiledTruthRef(m *core.Model, nl *netlist.Netlist, pl *placement.Placement, tiles int) (mean, std float64, err error) {
	parts := placement.Partition(pl.Grid, tiles)
	tileOf := make([]int, len(nl.Gates))
	for g, s := range pl.Site {
		row, col := s/pl.Grid.Cols, s%pl.Grid.Cols
		for ti, t := range parts {
			if t.Contains(row, col) {
				tileOf[g] = ti
				break
			}
		}
	}
	floor := m.Proc.CorrFloor()
	return serialPairSum(m, nl, pl, func(a, b int, d float64) float64 {
		if tileOf[a] == tileOf[b] {
			return m.Proc.TotalCorr(d)
		}
		return floor
	})
}

// runTiledMC runs the sampled-law and streaming gates.
func (h *harness) runTiledMC(ctx context.Context) error {
	const fx = "tiled-mc"
	m, nl, pl, err := tiledMCFixture(h.lib)
	if err != nil {
		return err
	}
	m.Workers = h.cfg.Workers
	const tiles = 3
	trials := 1500
	if h.cfg.Short {
		trials = 500
	}
	run := func(workers int) (chipmc.Result, error) {
		return chipmc.RunContext(ctx, chipmc.Config{
			Lib: h.lib, Proc: m.Proc, SignalProb: 0.5, Samples: trials,
			Seed: h.cfg.Seed, Workers: workers, Tiles: tiles, MaxGates: len(nl.Gates),
		}, nl, pl)
	}
	mc, err := run(h.cfg.Workers)
	if err != nil {
		return err
	}
	h.mutate("tiled-mc", &mc.Mean, &mc.Std)

	refMean, refStd, err := serialTiledTruthRef(m, nl, pl, tiles)
	if err != nil {
		return err
	}
	h.check(fx, "tiled-mc/mean-vs-law", KindStatistical, mc.Mean, refMean,
		MeanSETol(refStd, trials, mcZ),
		fmt.Sprintf("tiled sampler vs the exact moments of its own law, %d trials", trials))
	h.check(fx, "tiled-mc/std-vs-law", KindStatistical, mc.Std, refStd,
		StdSETol(refStd, trials, 1.5*mcZ),
		"normal-theory σ SE widened 1.5× for the lognormal totals")

	serial, err := run(1)
	if err != nil {
		return err
	}
	h.checkBehavior(fx, "tiled-mc/worker-invariance",
		serial.Mean == mc.Mean && serial.Std == mc.Std,
		"per-(tile, trial) streams make the run bitwise worker-invariant")

	// Streaming gate: serialize the fixture in leakest-stream format, scan
	// it back accumulating only histogram + per-tile counts, and require the
	// re-estimated tiled moments to equal the in-memory ones bitwise.
	var buf bytes.Buffer
	if err := netlist.WritePlaced(&buf, nl, pl, tiles); err != nil {
		return err
	}
	typeCounts := map[string]float64{}
	tileGates := make([]int, len(placement.Partition(pl.Grid, tiles)))
	hdr, err := netlist.ScanPlaced(bytes.NewReader(buf.Bytes()), netlist.StreamVisitor{
		Gate: func(ti int, typ []byte, _, _ int) error {
			typeCounts[string(typ)]++
			tileGates[ti]++
			return nil
		},
	})
	if err != nil {
		return err
	}
	hist, err := stats.NewHistogram(typeCounts)
	if err != nil {
		return err
	}
	sm, err := core.NewModel(h.lib, m.Proc, core.DesignSpec{
		Hist: hist, N: hdr.Gates,
		W:          float64(hdr.Cols) * hdr.SiteW,
		H:          float64(hdr.Rows) * hdr.SiteH,
		SignalProb: 0.5,
	}, core.Analytic)
	if err != nil {
		return err
	}
	sm.Workers = h.cfg.Workers
	streamed, err := sm.EstimateTiledCtx(ctx, hdr.Tiles, tileGates)
	if err != nil {
		return err
	}
	h.mutate("tiled", &streamed.Mean, &streamed.Std)
	mono, err := m.EstimateLinearCtx(ctx)
	if err != nil {
		return err
	}
	h.check(fx, "tiled-mc/stream-mean-vs-in-memory", KindExact, streamed.Mean, mono.Mean, Exact(),
		"one streaming pass (histogram + per-tile counts) reproduces the in-memory linear mean")
	h.check(fx, "tiled-mc/stream-std-vs-in-memory", KindExact, streamed.Std, mono.Std, Exact(),
		"global moments depend only on (histogram, N, W, H); the stream carries them losslessly")
	return nil
}
