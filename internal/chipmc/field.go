package chipmc

import (
	"context"
	"math"
	"math/rand"

	"leakest/internal/fault"
	"leakest/internal/fft"
	"leakest/internal/lkerr"
	"leakest/internal/parallel"
	"leakest/internal/placement"
	"leakest/internal/randvar"
	"leakest/internal/stats"
	"leakest/internal/telemetry"
)

// This file is the one Monte-Carlo trial loop. Every route — dense, fft,
// both qmc bodies, tiled, and the importance-sampled tail trials — runs the
// same body: seed the worker's PRNG from the run's trial stream, let the
// route's field fill the per-gate channel lengths, evaluate the chip total,
// and weigh it.
//
// Every field splits a trial's lengths the way the paper's variation model
// does: L_g = L_nom + σ_D2D·(z₀+θ) + wid_g, one die-to-die deviate z₀ shared
// by all gates (tilted by θ on importance-sampled trials) plus a zero-mean
// within-die field drawn by a randvar sampler. The split lives here alone;
// the samplers know only the within-die field. Routes differ only in how
// they draw z₀ and the within-die field:
//
//   - denseField: the within-die Cholesky field, with z₀ and the leading
//     normals taken from a scrambled-Sobol point on the qmc route; the IS
//     trials of a dense run reuse the primary's factor;
//   - pairField: the circulant-embedding torus, drawn in Dietrich–Newsam
//     pairs — trials 2p and 2p+1 read the real and imaginary parts of pair
//     p's inverse-transformed torus — for fft trials, grid-qmc trials
//     (qmc.go) and every IS trial on a grid;
//   - tiledField: per-tile within-die pair tori (tiled.go).
//
// Each field owns its per-worker scratch, warmed on a worker's first work
// item; every work item after that is allocation-free (TestTrialBodyAllocs).

// A field draws the correlated channel lengths of chip trials.
type field interface {
	// block is the number of consecutive trials one parallel work item
	// covers, and begin prepares the work item starting at trial lo on
	// worker w. Only the pair fields (pairField, tiledField) do work here.
	block() int
	begin(w, lo int) error
	// fill draws trial's per-gate channel lengths into ls on worker w. rng
	// was seeded from the run's trial stream, and the per-gate state and Vt
	// draws continue from it afterwards. tilt shifts the shared D2D deviate
	// by θ; fill returns the raw deviate z₀ the likelihood ratio is formed
	// from.
	fill(w int, rng *rand.Rand, ls []float64, trial int, tilt float64) (z0 float64, err error)
}

// perTrial supplies the block methods of the fields whose work item is one
// trial.
type perTrial struct{}

func (perTrial) block() int           { return 1 }
func (perTrial) begin(_, _ int) error { return nil }

// engine runs trial sets over one design: the gate state tables and each
// worker's PRNG and channel-length buffer, shared by the primary and tail
// trials of a run.
type engine struct {
	gates   []gateState
	sigmaVt float64
	bufs    []trialBuf
}

type trialBuf struct {
	rng *rand.Rand
	ls  []float64
}

// trialSet is one pass of the loop: len(totals) trials of field f, each
// seeded from stream. A nil weights marks primary trials (unit weight, the
// chipmc/trial fault site); otherwise trial i's likelihood ratio
// exp(−θz₀−θ²/2)·scale for tilt θ goes to weights[i] (halfT2 = θ²/2).
type trialSet struct {
	f       field
	stream  stats.Stream
	tilt    float64
	halfT2  float64
	scale   float64
	totals  []float64
	weights []float64
	counter *telemetry.Counter
	tick    *parallel.Ticker
}

func newEngine(cfg Config, gates []gateState, workers int) *engine {
	e := &engine{gates: gates, bufs: make([]trialBuf, workers)}
	if cfg.IncludeVt {
		e.sigmaVt = cfg.Proc.SigmaVt
	}
	return e
}

// run fans the trial set's work items out over the workers. Every trial
// draws from its own streams keyed by (Seed, trial index), so the totals
// are bitwise identical at any worker count; workers only race on disjoint
// totals/weights slots and their private scratch.
func (e *engine) run(ctx context.Context, op string, s *trialSet) error {
	per := s.f.block()
	items := (len(s.totals) + per - 1) / per
	return parallel.ForEach(ctx, op, len(e.bufs), items, func(w, blk int) error {
		return e.block(op, w, blk, s)
	})
}

// block runs work item blk of s on worker w: the trial body.
func (e *engine) block(op string, w, blk int, s *trialSet) error {
	b := &e.bufs[w]
	if b.rng == nil {
		b.rng = rand.New(rand.NewSource(1))
		b.ls = make([]float64, len(e.gates))
	}
	per := s.f.block()
	lo := blk * per
	hi := min(lo+per, len(s.totals))
	if err := s.f.begin(w, lo); err != nil {
		return lkerr.Wrap(lkerr.Numerical, op, err)
	}
	primary := s.weights == nil
	for trial := lo; trial < hi; trial++ {
		s.counter.Inc()
		if primary {
			fault.Hit(fault.SiteChipMCTrial)
		}
		b.rng.Seed(s.stream.SeedFor(trial))
		z0, err := s.f.fill(w, b.rng, b.ls, trial, s.tilt)
		if err != nil {
			return lkerr.Wrap(lkerr.Numerical, op, err)
		}
		total := chipTotal(e.gates, b.rng, b.ls, e.sigmaVt)
		if primary {
			total = fault.Corrupt(fault.SiteChipMCTrial, total)
		} else {
			s.weights[trial] = math.Exp(-s.tilt*z0-s.halfT2) * s.scale
		}
		s.totals[trial] = total
		s.tick.Tick()
	}
	return nil
}

// denseField samples the dense-Cholesky field: z₀, then the within-die
// field wid ~ N(0, σ_WID²·ρ) through the Cholesky factor (nil on a WID-free
// process). z holds z₀ at z[0] and the within-die normals after it. On the
// qmc route z[:qdims] of trial i comes from Sobol point i and the rest from
// the trial stream; off it every normal comes from the stream.
type denseField struct {
	perTrial
	lnom, sd2d float64
	wid        *randvar.MVNSampler
	seq        *randvar.SobolSeq // nil off the qmc route
	qdims      int
	z          [][]float64 // per-worker standard-normal scratch
}

func (f *denseField) fill(w int, rng *rand.Rand, ls []float64, trial int, tilt float64) (float64, error) {
	z := f.z[w]
	if z == nil {
		z = make([]float64, 1+len(ls))
		f.z[w] = z
	}
	fixed := 0
	if f.seq != nil {
		f.seq.NormalsInto(uint32(trial), z[:f.qdims])
		fixed = f.qdims - 1
	} else {
		z[0] = rng.NormFloat64()
	}
	if f.wid != nil {
		f.wid.SamplePartialInto(rng, z[1:], ls, fixed)
	} else {
		clear(ls)
	}
	shift := f.lnom + f.sd2d*(z[0]+tilt)
	for g := range ls {
		ls[g] += shift
	}
	return z[0], nil
}

// newDenseField factorizes the within-die covariance, unless the process
// has none; qmc selects the low-discrepancy leading dimensions: z₀ on
// coordinate 0, the first within-die normals on coordinates 1 and up.
func newDenseField(ctx context.Context, cfg Config, qmc bool, name string, pl *placement.Placement, workers int) (*denseField, error) {
	proc := cfg.Proc
	f := &denseField{lnom: proc.LNominal, sd2d: proc.SigmaD2D, z: make([][]float64, workers)}
	dims := 1
	var err error
	if proc.SigmaWID > 0 {
		if f.wid, err = newCholesky(ctx, proc, pl); err != nil {
			return nil, err
		}
		dims += len(pl.Site)
	}
	if qmc {
		f.qdims = min(dims, randvar.SobolMaxDims)
		if f.seq, err = qmcSeq(cfg, name, f.qdims); err != nil {
			return nil, err
		}
		telemetry.SpanAttrInt(ctx, "chipmc.qmc_dims", int64(f.qdims))
	}
	return f, nil
}

// pairField samples the circulant-embedding torus in Dietrich–Newsam pairs:
// a work item is one pair p — trials 2p and 2p+1 — and an odd trial count
// leaves the last pair's imaginary field unread. Pair p's spectrum comes
// from its own stream (pairStream, keyed by p), so totals are bitwise
// invariant under the worker count. Each trial's D2D deviate comes from its
// own trial stream, ahead of its per-gate draws — or, on the qmc route,
// from coordinates 0/1 of Sobol point p, whose further coordinates replace
// the leading spectral modes (qmc.go).
type pairField struct {
	lnom, sd2d float64
	gs         *randvar.GridSampler
	sites      []int
	seq        *randvar.SobolSeq // nil off the qmc route
	modes      []int
	qdims      int
	pairStream stats.Stream
	bufs       []pairBuf
}

// pairBuf is one worker's pair: its torus, the FFT scratch, the Sobol
// deviates of the qmc route, and one extracted field.
type pairBuf struct {
	rng     *rand.Rand   // per-pair spectrum stream
	torus   []complex128 // the pair spectrum
	scratch []complex128 // fft column scratch
	zq      []float64    // Sobol point p's normals; zq[0], zq[1] are the D2D deviates
	field   []float64    // the current trial's extracted field
}

// newPairField builds the grid field over gs. On the fft route and for IS
// trials every mode comes from the pair stream labelled label;
// newQMCPairField adds the Sobol sequence.
func newPairField(cfg Config, name, label string, gs *randvar.GridSampler, sites []int, workers int) *pairField {
	return &pairField{
		lnom:       cfg.Proc.LNominal,
		sd2d:       cfg.Proc.SigmaD2D,
		gs:         gs,
		sites:      sites,
		pairStream: stats.NewStream(cfg.Seed, "chipmc/"+name+"/"+label),
		bufs:       make([]pairBuf, workers),
	}
}

func (f *pairField) block() int { return 2 }

// begin fills pair p = lo/2's spectrum and inverse-transforms it.
func (f *pairField) begin(w, lo int) error {
	gs := f.gs
	b := &f.bufs[w]
	if b.rng == nil {
		tm, tn := gs.TorusDims()
		b.rng = rand.New(rand.NewSource(1))
		b.torus = make([]complex128, gs.TorusLen())
		b.scratch = make([]complex128, fft.Scratch2DLen(tm, tn))
		b.zq = make([]float64, f.qdims)
		b.field = make([]float64, gs.Sites())
	}
	p := lo / 2
	b.rng.Seed(f.pairStream.SeedFor(p))
	gs.FillPairSpectrum(b.rng, b.torus)
	if f.seq != nil {
		f.seq.NormalsInto(uint32(p), b.zq)
		for m, k := range f.modes {
			gs.SetMode(b.torus, k, b.zq[2+2*m], b.zq[3+2*m])
		}
	}
	return inversePair(gs, b.torus, b.scratch)
}

// fill hands trial 2p the real-part field of pair p and trial 2p+1 the
// imaginary-part field, shifted by the trial's D2D deviate z₀ + θ.
func (f *pairField) fill(w int, rng *rand.Rand, ls []float64, trial int, tilt float64) (float64, error) {
	b := &f.bufs[w]
	var z0 float64
	if f.seq != nil {
		z0 = b.zq[trial%2]
	} else {
		z0 = rng.NormFloat64()
	}
	f.gs.ExtractPair(b.torus, trial%2, b.field)
	shift := f.lnom + f.sd2d*(z0+tilt)
	for g, s := range f.sites {
		ls[g] = shift + b.field[s]
	}
	return z0, nil
}

// inversePair inverse-transforms a pair torus of gs, computing only the
// grid's Rows×Cols corner that ExtractPair reads; a WID-free sampler's 1×1
// torus is kept whole.
func inversePair(gs *randvar.GridSampler, torus, scratch []complex128) error {
	tm, tn := gs.TorusDims()
	g := gs.Grid()
	return fft.Transform2DInto(torus, tm, tn, min(g.Rows, tm), min(g.Cols, tn), true, scratch)
}
