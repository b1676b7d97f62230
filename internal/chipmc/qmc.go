package chipmc

import (
	"context"
	"math/rand"

	"leakest/internal/fft"
	"leakest/internal/lkerr"
	"leakest/internal/randvar"
	"leakest/internal/stats"
	"leakest/internal/telemetry"
)

// This file holds the quasi-Monte-Carlo side of SamplerQMC. One scrambled-
// Sobol sequence (randvar.SobolSeq) drives either field:
//
//   - Dense route (small designs): the Sobol point index is the trial index;
//     the first min(n, SobolMaxDims) field normals come from the point and
//     the rest from the trial's PRNG stream (denseField, field.go).
//
//   - Grid route (large designs, pairField): trials come in Dietrich–Newsam
//     pairs — the real and imaginary parts of one inverse-transformed pair
//     torus are two independent N(0, C) fields. The Sobol point index is the
//     PAIR index, and one point's coordinates drive both channels:
//     coordinate 0/1 are the two trials' D2D deviates, coordinates 2+2m/3+2m
//     the two white-noise channels of leading spectral mode m. Coordinates
//     of a single scrambled point are jointly uniform, so each extracted
//     field keeps the exact field law and the estimator stays unbiased; the
//     remaining modes come from the pair's own PRNG stream. A work item is
//     a batch of pairs pushed through one fft.Transform2DBatchInto pass,
//     whose per-member butterflies are bitwise those of the unbatched
//     transform — so totals are bitwise invariant under both the worker
//     count and the batch size.
//
// Per-gate state and Vt draws stay pseudo-random from the trial stream in
// both fields, exactly as in the dense/fft samplers.

// DefaultBatch is the number of trial fields per batched FFT pass. Eight
// 32×32 toruses are ≈128 KiB of complex spectrum — comfortably cache-
// resident per worker while still amortizing the column-block twiddle walk.
const DefaultBatch = 8

// qmcBatch is the batch size the pair field runs with; a variable (not
// const) only so the determinism tests can prove results do not depend on
// it.
var qmcBatch = DefaultBatch

// qmcSeq builds the run's Sobol sequence: dims low-discrepancy dimensions,
// scramble seed derived from (Config.Seed, netlist name) through the same
// FNV stream construction as the trial streams, and the optional
// conformance-only degrade mode.
func qmcSeq(cfg Config, name string, dims int) (*randvar.SobolSeq, error) {
	seed := stats.NewStream(cfg.Seed, "chipmc/"+name+"/qscramble#").SeedFor(0)
	if cfg.QMCDegrade != "" {
		seq, err := randvar.NewSobolDegraded(dims, seed, cfg.QMCDegrade)
		if err != nil {
			return nil, lkerr.Wrap(lkerr.InvalidInput, "chipmc.Run", err)
		}
		return seq, nil
	}
	seq, err := randvar.NewSobol(dims, seed)
	if err != nil {
		return nil, lkerr.Wrap(lkerr.InvalidInput, "chipmc.Run", err)
	}
	return seq, nil
}

// pairField is the grid route of the qmc sampler: a work item is a batch
// of Dietrich–Newsam pairs, trials 2p and 2p+1 of pair p.
type pairField struct {
	gs         *randvar.GridSampler
	sites      []int
	seq        *randvar.SobolSeq
	modes      []int
	qdims      int
	batchPairs int
	pairStream stats.Stream
	bufs       []pairBuf
}

// pairBuf is one worker's batch: the pair toruses, the FFT scratch, and the
// per-pair deviates and extracted fields.
type pairBuf struct {
	rng     *rand.Rand   // per-pair spectrum stream
	toruses []complex128 // batchPairs × TorusLen pair spectra
	scratch []complex128 // fft column scratch
	zq      []float64    // one Sobol point's normal deviates
	z0      []float64    // (z0a, z0b) per pair in the batch
	fa, fb  []float64    // the current pair's two extracted fields
	p0      int          // first pair of the batch
}

func newPairField(ctx context.Context, cfg Config, name string, gs *randvar.GridSampler, sites []int, workers int) (*pairField, error) {
	modes := gs.TopModes((randvar.SobolMaxDims - 2) / 2)
	f := &pairField{
		gs:         gs,
		sites:      sites,
		modes:      modes,
		qdims:      2 + 2*len(modes),
		batchPairs: max(1, (qmcBatch+1)/2),
		pairStream: stats.NewStream(cfg.Seed, "chipmc/"+name+"/qpair#"),
		bufs:       make([]pairBuf, workers),
	}
	var err error
	if f.seq, err = qmcSeq(cfg, name, f.qdims); err != nil {
		return nil, err
	}
	telemetry.SpanAttrInt(ctx, "chipmc.qmc_dims", int64(f.qdims))
	return f, nil
}

func (f *pairField) block() int { return 2 * f.batchPairs }

// begin fills the batch's pair spectra and runs one inverse FFT pass over
// them. Everything a pair needs is keyed by its global index p, so batch
// grouping cannot change it.
func (f *pairField) begin(w, lo, hi int) error {
	gs := f.gs
	tm, tn := gs.TorusDims()
	tlen := gs.TorusLen()
	b := &f.bufs[w]
	if b.rng == nil {
		b.rng = rand.New(rand.NewSource(1))
		b.toruses = make([]complex128, f.batchPairs*tlen)
		b.scratch = make([]complex128, fft.Scratch2DLen(tm, tn))
		b.zq = make([]float64, f.qdims)
		b.z0 = make([]float64, 2*f.batchPairs)
		b.fa = make([]float64, gs.Sites())
		b.fb = make([]float64, gs.Sites())
	}
	b.p0 = lo / 2
	np := (hi - lo + 1) / 2
	for j := 0; j < np; j++ {
		p := b.p0 + j
		torus := b.toruses[j*tlen : (j+1)*tlen]
		b.rng.Seed(f.pairStream.SeedFor(p))
		gs.FillPairSpectrum(b.rng, torus)
		f.seq.NormalsInto(uint32(p), b.zq)
		b.z0[2*j], b.z0[2*j+1] = b.zq[0], b.zq[1]
		for m, k := range f.modes {
			gs.SetMode(torus, k, b.zq[2+2*m], b.zq[3+2*m])
		}
	}
	// Only the grid's Rows×Cols corner is extracted; a WID-free sampler's
	// 1×1 torus is kept whole.
	g := gs.Grid()
	return fft.Transform2DBatchInto(b.toruses[:np*tlen], np, tm, tn, min(g.Rows, tm), min(g.Cols, tn), true, b.scratch)
}

// fill unpacks pair trial/2 on its first trial and hands out the real-part
// field to trial 2p, the imaginary-part field to trial 2p+1. The pair field
// takes no tilt.
func (f *pairField) fill(w int, _ *rand.Rand, ls []float64, trial int, _ float64) (float64, error) {
	b := &f.bufs[w]
	src := b.fb
	if trial%2 == 0 {
		j := trial/2 - b.p0
		tlen := f.gs.TorusLen()
		f.gs.ExtractPair(b.toruses[j*tlen:(j+1)*tlen], b.z0[2*j], b.z0[2*j+1], b.fa, b.fb)
		src = b.fa
	}
	for g, s := range f.sites {
		ls[g] = src[s]
	}
	return 0, nil
}
