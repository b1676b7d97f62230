package chipmc

import (
	"context"

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
//   - Grid route (large designs): the pair field of field.go, whose trials
//     come in Dietrich–Newsam pairs — the real and imaginary parts of one
//     inverse-transformed pair torus are two independent N(0, C) fields.
//     The Sobol point index is the PAIR index, and one point's coordinates
//     drive both channels: coordinate 0/1 are the two trials' D2D
//     deviates, coordinates 2+2m/3+2m the two white-noise channels of
//     leading spectral mode m. Coordinates of a single scrambled point are
//     jointly uniform, so each extracted field keeps the exact field law
//     and the estimator stays unbiased; the remaining modes come from the
//     pair's own PRNG stream.
//
// Per-gate state and Vt draws stay pseudo-random from the trial stream in
// both fields, exactly as in the dense/fft samplers.

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

// newQMCPairField is the grid route of the qmc sampler: the pair field
// with the D2D deviates and leading modes of pair p taken from Sobol point
// p.
func newQMCPairField(ctx context.Context, cfg Config, name string, gs *randvar.GridSampler, sites []int, workers int) (*pairField, error) {
	f := newPairField(cfg, name, "qpair#", gs, sites, workers)
	f.modes = gs.TopModes((randvar.SobolMaxDims - 2) / 2)
	f.qdims = 2 + 2*len(f.modes)
	var err error
	if f.seq, err = qmcSeq(cfg, name, f.qdims); err != nil {
		return nil, err
	}
	telemetry.SpanAttrInt(ctx, "chipmc.qmc_dims", int64(f.qdims))
	return f, nil
}
