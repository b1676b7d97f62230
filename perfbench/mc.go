package main

import (
	"context"
	"fmt"
	"math"
	"os"

	"leakest"
	"leakest/internal/chipmc"
	"leakest/internal/stats"
)

// The mc workload: full-chip Monte-Carlo ops rotating over the dense
// Cholesky sampler (200–600 gates), the FFT grid sampler (1k–3k gates),
// the QMC grid sampler (4.5k–8k gates, above the dense-QMC limit), the
// tiled sampler (8k–20k gates, 3–6 tiles per axis)
// and importance-sampled tail exceedance at P ≈ 1e-3 (200–500 gates).
// chipmc, randvar, fft and linalg do the work; core's estimators and the
// server idle. The sizes keep each op's working set within a few MB, so an
// op's time depends little on what else shares the machine's caches.
//
// The ops call chipmc.RunContext with the configuration
// leakest.Estimator.MonteCarloContext builds, plus KeepTrials: the
// per-trial totals let the check recompute the reported moments exactly,
// which the public MonteCarloResult does not expose.

// mcTruthMax is the largest circuit with an O(n²) truth reference; the
// tiled sizes above it are checked against the closed-form mean.
const mcTruthMax = 9000

type mcKind struct {
	name     string
	ops      int     // ops per cycle
	lo, hi   float64 // circuit sizes
	trials   int     // base trial count, jittered ±25 % per op
	sampler  chipmc.Sampler
	isTrials int
	// sigmaBias is the sampler's measured bias on σ against the analytic
	// truth, and sigmaSlack the allowance around it beside the pooled
	// standard error. The fft sampler reads 3–4 % low at 1k–3k gates
	// (−3.2 ± 1.2 %, −4.1 ± 1.3 %, −3.3 ± 1.5 % at 1000, 2000 and 3000
	// gates over 5000–8000 trials); the dense sampler reads −0.4 ± 0.8 % at
	// 400 gates over 20000 trials. qmc, with few trials per op, gets a wide
	// slack and no centre.
	sigmaBias, sigmaSlack float64
}

var mcKinds = []mcKind{
	{name: "dense", ops: 16, lo: 200, hi: 600, trials: 250, sampler: chipmc.SamplerDense, sigmaSlack: 0.02},
	{name: "fft", ops: 14, lo: 1000, hi: 3000, trials: 40, sampler: chipmc.SamplerFFT, sigmaBias: -0.035, sigmaSlack: 0.02},
	{name: "qmc", ops: 12, lo: 4500, hi: 8000, trials: 16, sampler: chipmc.SamplerQMC, sigmaSlack: 0.03},
	{name: "tiled", ops: 12, lo: 8e3, hi: 2e4, trials: 14, sampler: chipmc.SamplerAuto},
	{name: "tail", ops: 14, lo: 200, hi: 500, trials: 100, sampler: chipmc.SamplerAuto, isTrials: 160, sigmaSlack: 0.02},
}

type mcOp struct {
	kind     int // index into mcKinds
	ckt      int // index into the workload's circuits
	tiles    int
	trials   int // set per op by mcOpAt
	isTrials int
}

// mcOpAt is op i: its cycle slot with trial counts drawn for this op, so
// repeated slots cost a little more or less each cycle and op costs spread
// continuously. Like the sizes, the trial counts are the same for every
// seed: they are drawn per circuit and cycle, not per seed, so the ops near
// a latency percentile cost the same whichever order the seed gives them.
func mcOpAt(cycle []mcOp, i int) mcOp {
	op := cycle[i%len(cycle)]
	kind := mcKinds[op.kind]
	rng := newRNG(0, fmt.Sprintf("mc/ckt%d/cycle%d", op.ckt, i/len(cycle)))
	op.trials = jitter(rng, kind.trials, 1.25)
	if kind.name == "tiled" {
		op.trials = max(op.trials, 10) // chipmc's minimum
	}
	if kind.isTrials > 0 {
		op.isTrials = jitter(rng, kind.isTrials, 1.25)
	}
	return op
}

type mcCkt struct {
	name string
	n    int
	nl   *leakest.Netlist
	pl   *leakest.Placement
	ref  leakest.Result // exact moments, filled by reference
	spec float64        // tail ops: the spec at P ≈ 1e-3
}

// mcPlan is the seed's cycle: the circuit sizes per kind and the op
// order.
func mcPlan(seed int64) ([]mcCkt, []mcOp) {
	rng := newRNG(seed, "mc")
	var ckts []mcCkt
	var lists [][]mcOp
	for k, kind := range mcKinds {
		var ops []mcOp
		for j, n := range logSizes(kind.ops, kind.lo, kind.hi) {
			op := mcOp{kind: k, ckt: len(ckts)}
			if kind.name == "tiled" {
				op.tiles = rankTiles(j, kind.ops, 3, 6)
			}
			ckts = append(ckts, mcCkt{name: fmt.Sprintf("%s%d", kind.name, j), n: n})
			ops = append(ops, op)
		}
		lists = append(lists, ops)
	}
	return ckts, balance(rng, lists...)
}

type mcWL struct {
	b     *bench
	lib   *leakest.Library
	ckts  []mcCkt
	cycle []mcOp
}

type mcOut struct {
	op  mcOp
	res chipmc.Result
}

func (w *mcWL) clients() int   { return 1 }
func (w *mcWL) tailQ() float64 { return 0.9 }
func (w *mcWL) close()         {}

func (w *mcWL) setup(ctx context.Context) error {
	lib, err := characterize(ctx)
	if err != nil {
		return err
	}
	w.lib = lib
	hist, _, err := designHist(w.b.seed, "mc/hist")
	if err != nil {
		return err
	}
	est, err := newEstimator(lib)
	if err != nil {
		return err
	}
	w.ckts, w.cycle = mcPlan(w.b.seed)
	for j := range w.ckts {
		c := &w.ckts[j]
		if c.nl, err = leakest.RandomCircuit(lib, w.b.seed, c.name, c.n, max(8, c.n/16), hist); err != nil {
			return err
		}
		if c.pl, err = leakest.AutoPlace(c.nl, w.b.seed); err != nil {
			return err
		}
		if c.n > mcTruthMax {
			continue
		}
		// The tail spec: P ≈ 1e-3 under the lognormal fit to the O(n)
		// estimate of the placed design.
		d, err := est.ExtractDesign(c.nl, c.pl, 0.5)
		if err != nil {
			return err
		}
		r, err := est.EstimateContext(ctx, d, leakest.Linear)
		if err != nil {
			return err
		}
		s2 := math.Log1p(r.Std * r.Std / (r.Mean * r.Mean))
		c.spec = math.Exp(math.Log(r.Mean) - s2/2 + 3.09*math.Sqrt(s2))
	}
	return nil
}

// reference returns circuit j's exact moments, computed once, after the
// timed phase: the O(n²) truth of the placed design, or for the tiled
// sizes the closed-form mean.
func (w *mcWL) reference(ctx context.Context, j int) (leakest.Result, error) {
	c := &w.ckts[j]
	if c.ref.Mean > 0 {
		return c.ref, nil
	}
	est, err := leakest.NewEstimator(w.lib, nil)
	if err != nil {
		return leakest.Result{}, err
	}
	est.Workers = refProcs
	if c.n > mcTruthMax {
		d, err := est.ExtractDesign(c.nl, c.pl, 0.5)
		if err != nil {
			return leakest.Result{}, err
		}
		c.ref, err = est.EstimateContext(ctx, d, leakest.Naive)
		return c.ref, err
	}
	c.ref, err = est.TrueLeakageContext(ctx, c.nl, c.pl, 0.5)
	return c.ref, err
}

func (w *mcWL) config(i int, op mcOp) chipmc.Config {
	kind := mcKinds[op.kind]
	cfg := chipmc.Config{
		Lib:        w.lib,
		Proc:       w.lib.Process,
		SignalProb: 0.5,
		Samples:    op.trials,
		Seed:       w.b.seed*1_000_000 + int64(i),
		Workers:    1,
		Sampler:    kind.sampler,
		Tiles:      op.tiles,
		KeepTrials: true,
	}
	if op.isTrials > 0 {
		cfg.Tail = &chipmc.TailConfig{Spec: w.ckts[op.ckt].spec, ISTrials: op.isTrials}
	}
	return cfg
}

func (w *mcWL) do(ctx context.Context, i int) (any, error) {
	op := mcOpAt(w.cycle, i)
	c := w.ckts[op.ckt]
	ctx, end := opSpan(ctx, mcKinds[op.kind].name, c.n)
	defer end()
	res, err := chipmc.RunContext(ctx, w.config(i, op), c.nl, c.pl)
	if err != nil {
		return nil, err
	}
	return mcOut{op: op, res: res}, nil
}

// mcZ is the z multiplier on the pooled standard errors.
const mcZ = 4

// check holds each op's reported moments to those recomputed from its
// trial totals (exactTol), then pools every sampler kind's ops of the run
// against their exact references: the σs (all kinds but tiled, whose law
// drops cross-tile correlation by design) and the means, each as a
// weighted mean relative error that must lie within mcZ pooled standard
// errors plus the kind's allowance (the E1 cell-fit envelope for means;
// sigmaSlack around sigmaBias for σs). The pooled error shrinks with the
// run's total trials of the kind, so on the dense and tail samplers a σ
// 10 % off fails in a 20 s run. When a kind's pooled check fails, every
// op of that kind fails.
func (w *mcWL) check(ctx context.Context, outs []opOut, p perturb) []bool {
	meanBias := envelope("e1.mean_err_max", 0)
	ok := make([]bool, len(outs))
	pools := make([]mcPool, len(mcKinds))
	for k, o := range outs {
		out, good := o.out.(mcOut)
		if o.err != nil || !good {
			continue
		}
		res, kind := out.res, mcKinds[out.op.kind]
		ref, err := w.reference(ctx, out.op.ckt)
		if err != nil {
			ok[k] = failf(o.i, "reference: %v", err)
			continue
		}
		trials := res.Trials
		if f := p.scale(kind.name); p.only == kind.name {
			// Scale the trials' deviations from their mean: the moments
			// stay consistent with the trial stream, and only the
			// comparison with the reference can catch the change.
			trials = make([]float64, len(res.Trials))
			for t, x := range res.Trials {
				trials[t] = res.Mean + f*(x-res.Mean)
			}
			res.Std *= f
		} else if p.only == "" {
			res.Std *= f
		}
		var run stats.Running
		for _, t := range trials {
			run.Push(t)
		}
		ok[k] = true
		if len(trials) != out.op.trials || relDiff(res.Std, run.StdDev()) > exactTol || relDiff(res.Mean, run.Mean()) > exactTol {
			ok[k] = failf(o.i, "%s moments (%g, %g) differ from the trial stream (%g, %g)", kind.name, res.Mean, res.Std, run.Mean(), run.StdDev())
		}
		if out.op.isTrials > 0 && (res.Tail == nil || !(res.Tail.P >= 0 && res.Tail.P <= 1)) {
			ok[k] = failf(o.i, "tail exceedance missing or outside [0,1]")
		}
		pools[out.op.kind].add(k, trials, res, ref, kind.name == "tiled")
	}
	for kk, pool := range pools {
		kind := mcKinds[kk]
		if len(pool.ops) == 0 {
			continue
		}
		rm, sem := pool.meanErr()
		good := math.Abs(rm) <= mcZ*sem+meanBias
		line := fmt.Sprintf("mc %s: %d ops, %d trials: mean error %+.4f (allowed ±%.4f)", kind.name, len(pool.ops), pool.trials, rm, mcZ*sem+meanBias)
		if kind.name != "tiled" {
			rs, ses := pool.sigmaErr()
			good = good && math.Abs(rs-kind.sigmaBias) <= mcZ*ses+kind.sigmaSlack
			line += fmt.Sprintf(", σ error %+.4f (allowed %+.4f ± %.4f)", rs, kind.sigmaBias, mcZ*ses+kind.sigmaSlack)
		}
		if !good {
			line += ": FAILED"
			for _, k := range pool.ops {
				ok[k] = false
			}
		}
		fmt.Fprintln(os.Stderr, line)
	}
	return ok
}

// mcPool accumulates one sampler kind's ops for the pooled comparison.
type mcPool struct {
	ops    []int // indices into outs
	trials int
	// Inverse-variance weighted sums of the means' relative errors.
	meanW, meanWR float64
	// Standardized fourth moments of the trials, for the pooled kurtosis.
	m4 float64
	// Per-op σ terms, weighted once the pooled kurtosis is known.
	sigmaRel []float64
	sigmaN   []float64
}

func (p *mcPool) add(k int, trials []float64, res chipmc.Result, ref leakest.Result, meanOnly bool) {
	n := float64(len(trials))
	p.ops = append(p.ops, k)
	p.trials += len(trials)
	sigma := ref.Std
	if meanOnly {
		sigma = res.Std
	}
	if se := sigma / ref.Mean / math.Sqrt(n); se > 0 {
		p.meanW += 1 / (se * se)
		p.meanWR += (res.Mean/ref.Mean - 1) / (se * se)
	}
	if meanOnly || res.Std == 0 {
		return
	}
	for _, t := range trials {
		z := (t - res.Mean) / res.Std
		p.m4 += z * z * z * z
	}
	p.sigmaRel = append(p.sigmaRel, res.Std/ref.Std-1)
	p.sigmaN = append(p.sigmaN, n)
}

// meanErr is the pooled relative error of the means and its standard
// error.
func (p *mcPool) meanErr() (r, se float64) {
	if p.meanW == 0 {
		return 0, 0
	}
	return p.meanWR / p.meanW, 1 / math.Sqrt(p.meanW)
}

// sigmaErr is the pooled relative error of the σs and its standard error.
// A sample σ of n trials with kurtosis κ has relative standard error
// √((κ−1)/4n); κ is pooled over the kind's trials and never below the
// normal 3, because chip totals are heavy-tailed (leakage is exponential
// in the channel length).
func (p *mcPool) sigmaErr() (r, se float64) {
	total := 0.0
	for _, n := range p.sigmaN {
		total += n
	}
	if total == 0 {
		return 0, 0
	}
	kurt := math.Max(3, p.m4/total)
	var w, wr float64
	for k, n := range p.sigmaN {
		wk := 4 * n / (kurt - 1)
		w += wk
		wr += wk * p.sigmaRel[k]
	}
	return wr / w, 1 / math.Sqrt(w)
}

func (w *mcWL) layerExtras([]opOut) map[string]float64 { return map[string]float64{} }
