// Package chipmc is an independent full-chip Monte-Carlo ground truth for
// the analytic estimators: it samples the spatially correlated channel-
// length field at every placed gate (D2D shift plus a within-die Gaussian
// field with the process correlation), samples each gate's input state from
// the signal probability, evaluates each gate's leakage from its tabulated
// characterization curve, and accumulates the total-chip leakage
// distribution. It validates the O(n²) "true leakage" analytics beyond the
// paper's own validation and powers the Vt-ablation experiment.
//
// Two field samplers are available. The dense path factorizes the n×n
// within-die covariance (O(n³) setup, O(n²) per trial) and is the exact
// referee at small sizes. The FFT path exploits the regular placement
// grid: the stationary WID kernel is circulant-embedded on a torus
// (randvar.GridSampler), so setup is one 2-D FFT and each pair of trials
// costs one O(S log S) transform in the torus size S — raising the
// practical gate budget from thousands to hundreds of thousands while
// sampling the same covariance at every grid lag (exactly when the embedding torus affords the kernel's
// support, within a hard-capped clamp bias otherwise; see
// randvar.GridSampler).
//
// Plan validates a Config and resolves its route; every route — dense, fft,
// qmc, tiled, and the importance-sampled tail trials — then runs the one
// trial loop of field.go over the route's field.
package chipmc

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"leakest/internal/charlib"
	"leakest/internal/fault"
	"leakest/internal/linalg"
	"leakest/internal/lkerr"
	"leakest/internal/netlist"
	"leakest/internal/parallel"
	"leakest/internal/placement"
	"leakest/internal/randvar"
	"leakest/internal/spatial"
	"leakest/internal/stats"
	"leakest/internal/telemetry"
)

// DefaultMaxGates is the default bound on the dense-Cholesky field
// construction; beyond this the O(n³) factorization is impractical and the
// FFT sampler (or the analytic estimators) is the intended tool. Override
// with Config.MaxGates.
const DefaultMaxGates = 4000

// DefaultMaxGatesFFT is the default gate bound for the FFT sampler, whose
// per-trial cost grows as S log S in the torus size rather than n². The
// limit keeps worst-case torus scratch (16 bytes/point per worker) and trial
// time predictable. Override with Config.MaxGates.
const DefaultMaxGatesFFT = 200000

// autoDenseLimit is the gate count up to which SamplerAuto routes to the
// dense reference path; a variable (not const) only so the fault-injection
// tests can exercise the FFT→dense fallback on small, fast designs.
var autoDenseLimit = DefaultMaxGates

// Sampler selects how the correlated channel-length field is drawn.
type Sampler int

const (
	// SamplerAuto picks SamplerDense for designs within DefaultMaxGates and
	// SamplerFFT beyond, falling back to dense if the grid embedding fails
	// on a small design.
	SamplerAuto Sampler = iota
	// SamplerDense forces the dense-Cholesky field, the exact referee at
	// small sizes.
	SamplerDense
	// SamplerFFT forces the circulant-embedding grid sampler.
	SamplerFFT
	// SamplerQMC draws trials from a scrambled-Sobol low-discrepancy
	// sequence instead of pseudo-random deviates, drawing trial fields in
	// Dietrich–Newsam pairs through one 2-D FFT pass on large designs and
	// feeding the dense-Cholesky field directly on small ones. Same
	// estimand and unbiasedness as the other samplers, materially fewer
	// trials to a given standard error on smooth integrands; results are
	// NOT bitwise comparable to dense/fft (different deviate stream), but
	// are themselves bitwise reproducible at any worker count. See qmc.go.
	SamplerQMC
)

// String implements fmt.Stringer with the CLI spellings.
func (s Sampler) String() string {
	switch s {
	case SamplerAuto:
		return "auto"
	case SamplerDense:
		return "dense"
	case SamplerFFT:
		return "fft"
	case SamplerQMC:
		return "qmc"
	}
	return "invalid"
}

// ParseSampler maps the CLI spellings onto Sampler values.
func ParseSampler(name string) (Sampler, error) {
	switch name {
	case "auto":
		return SamplerAuto, nil
	case "dense":
		return SamplerDense, nil
	case "fft":
		return SamplerFFT, nil
	case "qmc":
		return SamplerQMC, nil
	}
	return 0, lkerr.New(lkerr.InvalidInput, "chipmc.ParseSampler",
		"unknown sampler %q (want auto, dense, fft, or qmc)", name)
}

// Config controls a full-chip Monte-Carlo run.
type Config struct {
	// Lib is the characterized library (curves are evaluated, not fits).
	Lib *charlib.Library
	// Proc supplies the variation model; its (µ, σ) must match Lib's.
	Proc *spatial.Process
	// SignalProb drives per-gate input-state sampling.
	SignalProb float64
	// Samples is the number of chip-level trials (default 2000).
	Samples int
	// Seed fixes the random stream.
	Seed int64
	// IncludeVt adds an independent per-gate lognormal factor modelling
	// random Vt fluctuation, exp(−ΔVt/(n·vT)) with ΔVt ~ N(0, σ_Vt²). This
	// slightly overstates the Vt variance contribution (devices within a
	// gate are lumped into one factor), which is conservative for the
	// ablation that shows the contribution is negligible.
	IncludeVt bool
	// Sampler selects the field construction (default SamplerAuto).
	Sampler Sampler
	// QMCDegrade deliberately weakens the qmc deviate stream
	// ("unscrambled" or "pseudo"; see randvar.NewSobolDegraded). It exists
	// solely so the conformance suite can prove its convergence gates
	// would catch a broken sequence; leave empty in production.
	QMCDegrade string
	// MaxGates bounds the gate count the selected sampler will accept
	// (default DefaultMaxGates for the dense path, DefaultMaxGatesFFT
	// otherwise). Exceeding it is a typed BudgetExceeded error, not a
	// crash: the analytic estimators handle larger designs.
	MaxGates int
	// Workers is the goroutine count sampling trials: 0 selects
	// runtime.GOMAXPROCS(0), 1 forces the serial path. Results are bitwise
	// identical at any setting — every trial draws from its own PRNG stream
	// derived from (Seed, trial index), and the moment reduction runs over
	// the stored per-trial totals in trial order.
	Workers int
	// Prebuilt is an optional pre-constructed FFT grid sampler (the
	// expensive torus embedding, cacheable across runs keyed by
	// (kernel, grid)). It is used only when the FFT path is selected and
	// its grid matches the placement grid exactly; otherwise the embedding
	// is built fresh. The sampler must have been built for the same
	// process (the embedding depends only on the WID kernel and the grid).
	Prebuilt *randvar.GridSampler
	// Tiles partitions the placement grid into a Tiles×Tiles arrangement
	// and samples the within-die field per tile (WID-only sub-grid
	// embeddings sharing one chip-wide D2D deviate per trial) instead of on
	// one monolithic torus, so field memory scales with the largest tile
	// rather than the die (DESIGN.md §16). Values ≤ 1 select the monolithic
	// samplers (the historical behavior). Tiled sampling drops the
	// within-die correlation of cross-tile gate pairs to the D2D floor — an
	// approximation the conformance harness gates against an exact
	// reference — and requires the fft or auto sampler.
	Tiles int
	// KeepTrials retains the per-trial chip totals in Result.Trials — the
	// raw MC stream, used by the determinism suite and by distribution
	// diagnostics. Off by default (costs 8 bytes per trial when on).
	KeepTrials bool
	// Tail enables distribution-tail estimation — quantiles, exceedance at
	// a spec, and the importance-sampled deep-tail estimator — populating
	// Result.Tail. Nil disables the stage (the historical behavior).
	Tail *TailConfig
}

// Result is the sampled full-chip leakage distribution summary.
type Result struct {
	Mean, Std float64
	// Q05 and Q95 are the 5th and 95th percentile of total leakage.
	Q05, Q95 float64
	Samples  int
	// Trials holds the per-trial chip totals in trial order when
	// Config.KeepTrials is set; nil otherwise.
	Trials []float64
	// Tail holds the distribution-tail summary when Config.Tail is set;
	// nil otherwise.
	Tail *TailStats
}

// MeanSE returns the standard error of the sampled mean, the natural
// tolerance unit when comparing the MC mean against an analytic estimator.
func (r Result) MeanSE() float64 { return stats.MeanSE(r.Std, r.Samples) }

// gateState holds the per-gate sampling tables.
type gateState struct {
	states []*charlib.StateChar
	cum    []float64
}

// nvt is n·vT of the default 90 nm card, the subthreshold slope factor of
// the Vt-fluctuation leakage multiplier.
const nvt = 1.4 * 0.0259

// chipTotal evaluates the chip leakage of one sampled channel-length vector:
// per-gate input state by inverse-CDF draw, leakage from the characterized
// curve, optional Vt-fluctuation factor. Shared by the primary trial body
// and the importance-sampled tail trials; the per-gate draw order is part of
// the bitwise determinism contract of both.
func chipTotal(gates []gateState, rng *rand.Rand, ls []float64, sigmaVt float64) float64 {
	total := 0.0
	for g := range gates {
		gs := &gates[g]
		st := gs.states[0]
		if len(gs.states) > 1 {
			u := rng.Float64()
			idx := sort.SearchFloat64s(gs.cum, u)
			if idx >= len(gs.states) {
				idx = len(gs.states) - 1
			}
			st = gs.states[idx]
		}
		x := st.Leakage(ls[g])
		if sigmaVt > 0 {
			x *= math.Exp(-rng.NormFloat64() * sigmaVt / nvt)
		}
		total += x
	}
	return total
}

// Run executes the Monte Carlo for the placed netlist.
func Run(cfg Config, nl *netlist.Netlist, pl *placement.Placement) (Result, error) {
	return RunContext(context.Background(), cfg, nl, pl)
}

// Route is a Monte-Carlo run's resolved plan, as Plan returns it.
type Route struct {
	// Sampler is the sampler the trials run on: SamplerAuto resolved to
	// SamplerDense or SamplerFFT by gate count, SamplerFFT on a tiled run.
	Sampler Sampler
	// MaxGates is the gate budget in force.
	MaxGates int
	// Tiles is the per-axis tile count of a tiled run; 0 when monolithic.
	Tiles int
	// Embedding reports that the trials sample the full-grid circulant
	// embedding (randvar.GridSampler), which Config.Prebuilt may supply.
	Embedding bool
}

// Name labels the route in telemetry: the sampler name, prefixed "tiled-"
// on a tiled run.
func (r Route) Name() string {
	if r.Tiles > 1 {
		return "tiled-" + r.Sampler.String()
	}
	return r.Sampler.String()
}

// Plan validates cfg for a design of n gates placed on grid and resolves
// its route. Explicit sampler choices use their own default budget, auto
// routes small designs to the dense path and large ones to the FFT
// path, the qmc sampler rides the grid above the same threshold, and an
// explicit Config.MaxGates overrides the budget in every mode. Every
// refused combination is refused here, before any field is built.
func Plan(cfg Config, n int, grid placement.Grid) (Route, error) {
	const op = "chipmc.Run"
	if n == 0 {
		return Route{}, lkerr.New(lkerr.InvalidInput, op, "empty netlist")
	}
	switch cfg.Sampler {
	case SamplerAuto, SamplerDense, SamplerFFT, SamplerQMC:
	default:
		return Route{}, lkerr.New(lkerr.InvalidInput, op, "invalid Sampler %d", int(cfg.Sampler))
	}
	rt := Route{Sampler: cfg.Sampler, MaxGates: cfg.MaxGates}
	if rt.Sampler == SamplerAuto {
		rt.Sampler = SamplerFFT
		if n <= autoDenseLimit {
			rt.Sampler = SamplerDense
		}
	}
	if rt.MaxGates == 0 {
		rt.MaxGates = DefaultMaxGatesFFT
		if cfg.Sampler == SamplerDense {
			rt.MaxGates = DefaultMaxGates
		}
	}
	if cfg.Tiles < 0 {
		return Route{}, lkerr.New(lkerr.InvalidInput, op, "negative Tiles %d", cfg.Tiles)
	}
	if cfg.Tiles > 1 {
		if cfg.Sampler == SamplerDense || cfg.Sampler == SamplerQMC {
			return Route{}, lkerr.New(lkerr.InvalidInput, op,
				"tiled sampling (Tiles=%d) requires the fft or auto sampler, got %s",
				cfg.Tiles, cfg.Sampler)
		}
		rt.Sampler, rt.Tiles = SamplerFFT, cfg.Tiles
		if cfg.MaxGates == 0 {
			rt.MaxGates = DefaultMaxGatesTiled
		}
	}
	rt.Embedding = rt.Tiles == 0 &&
		(rt.Sampler == SamplerFFT || (rt.Sampler == SamplerQMC && n > autoDenseLimit))
	if n > rt.MaxGates {
		return Route{}, lkerr.New(lkerr.BudgetExceeded, op,
			"%d gates exceed the %s-sampler limit MaxGates=%d; "+
				"use the analytic estimators (Estimate / TrueLeakage) for designs this large",
			n, rt.Sampler, rt.MaxGates)
	}
	if grid.Sites() < n {
		return Route{}, lkerr.New(lkerr.InvalidInput, op,
			"%d gates do not fit the %d-site placement grid", n, grid.Sites())
	}
	if cfg.Lib == nil || cfg.Proc == nil {
		return Route{}, lkerr.New(lkerr.InvalidInput, op, "Lib and Proc are required")
	}
	if err := cfg.Proc.Validate(); err != nil {
		return Route{}, lkerr.Wrap(lkerr.InvalidInput, op, err)
	}
	if math.Abs(cfg.Proc.LNominal-cfg.Lib.Process.LNominal) > 1e-12 ||
		math.Abs(cfg.Proc.TotalSigma()-cfg.Lib.Process.TotalSigma()) > 1e-12 {
		return Route{}, lkerr.New(lkerr.InvalidInput, op, "process inconsistent with characterization")
	}
	if !(cfg.SignalProb >= 0 && cfg.SignalProb <= 1) {
		return Route{}, lkerr.New(lkerr.InvalidInput, op,
			"signal probability %g outside [0,1]", cfg.SignalProb)
	}
	if cfg.Samples != 0 && cfg.Samples < 10 {
		return Route{}, lkerr.New(lkerr.InvalidInput, op, "%d samples too few", cfg.Samples)
	}
	if cfg.Tail != nil {
		if _, err := cfg.Tail.Validate(); err != nil {
			return Route{}, err
		}
	}
	return rt, nil
}

// timeRun observes estimate_duration_seconds{method="chipmc",sampler=...}
// when metrics are enabled, mirroring the analytic estimators' timings so
// dashboards can compare methods and samplers directly.
func timeRun(route string) func() {
	if !telemetry.MetricsOn() {
		return func() {}
	}
	start := time.Now()
	name := telemetry.Label(
		telemetry.Label("estimate_duration_seconds", "method", "chipmc"),
		"sampler", route)
	return func() { telemetry.ObserveSeconds(name, time.Since(start).Seconds()) }
}

// RunContext is Run with cancellation: ctx is checked once per row while
// assembling the dense field covariance and once per chip-level trial, so a
// cancel stops the run within one check interval. It is the Monte Carlo's
// door for a placed design, so the placement is checked here.
func RunContext(ctx context.Context, cfg Config, nl *netlist.Netlist, pl *placement.Placement) (Result, error) {
	const op = "chipmc.Run"
	ctx, endRun := telemetry.WithSpan(ctx, "chipmc.run")
	defer endRun()
	n := len(nl.Gates)
	rt, err := Plan(cfg, n, pl.Grid)
	if err != nil {
		return Result{}, err
	}
	if err := pl.Validate(n); err != nil {
		return Result{}, lkerr.Wrap(lkerr.InvalidInput, op, err)
	}
	if cfg.Samples == 0 {
		cfg.Samples = 2000
	}
	gates, err := buildGateStates(cfg, nl)
	if err != nil {
		return Result{}, err
	}
	workers := parallel.Resolve(cfg.Workers, cfg.Samples)
	f, err := newPrimaryField(ctx, cfg, &rt, nl.Name, pl, workers)
	if err != nil {
		return Result{}, err
	}
	defer timeRun(rt.Name())()

	e := newEngine(cfg, gates, workers)
	totals := make([]float64, cfg.Samples)
	telemetry.Inc(telemetry.Label("chipmc_sampler_runs_total", "sampler", rt.Name()))
	telemetry.SpanAttrStr(ctx, "chipmc.sampler", rt.Name())
	telemetry.SpanAttrInt(ctx, "chipmc.trials", int64(cfg.Samples))
	telemetry.SpanAttrInt(ctx, "chipmc.workers", int64(workers))
	endTrials := telemetry.StartSpan(ctx, "chipmc.trials")
	rep := telemetry.StartProgress(ctx, "chipmc.trials", int64(cfg.Samples))
	stream := stats.NewStream(cfg.Seed, "chipmc/"+nl.Name+"/trial#")
	set := &trialSet{f: f, stream: stream, totals: totals, tick: parallel.NewTicker(rep)}
	if r := telemetry.Default(); r != nil {
		set.counter = r.Counter("chipmc_trials_total")
	}
	if err := e.run(ctx, op, set); err != nil {
		rep.Done(set.tick.Count())
		endTrials()
		return Result{}, err
	}
	// The Welford reduction runs serially in trial order.
	var run stats.Running
	for _, total := range totals {
		run.Push(total)
	}
	rep.Done(int64(cfg.Samples))
	endTrials()
	res := Result{
		Mean:    run.Mean(),
		Std:     run.StdDev(),
		Q05:     stats.Quantile(totals, 0.05),
		Q95:     stats.Quantile(totals, 0.95),
		Samples: cfg.Samples,
	}
	if cfg.KeepTrials {
		res.Trials = append([]float64(nil), totals...)
	}
	// Final-moment guard: a NaN produced by any trial must surface as a
	// typed error, never as a silent NaN result.
	if err := lkerr.CheckFinite(op, "mean", res.Mean); err != nil {
		return Result{}, err
	}
	if err := lkerr.CheckFinite(op, "std", res.Std); err != nil {
		return Result{}, err
	}
	if cfg.Tail != nil {
		tail, terr := runTail(ctx, cfg, nl.Name, e, f, totals, res)
		if terr != nil {
			return Result{}, terr
		}
		res.Tail = tail
	}
	return res, nil
}

// newPrimaryField builds route rt's trial field: the tiled field, the
// full-grid embedding (the pair field, with the Sobol sequence on the qmc
// route), or the dense field. An embedding failure degrades to the dense
// field when the caller's explicit gate budget admits it and the sampler
// was not forced to fft, updating rt.
func newPrimaryField(ctx context.Context, cfg Config, rt *Route, name string, pl *placement.Placement, workers int) (field, error) {
	const op = "chipmc.Run"
	if rt.Tiles > 1 {
		return newTiledField(ctx, cfg, name, pl, workers)
	}
	if rt.Embedding {
		endSetup := telemetry.StartSpan(ctx, "chipmc.fft_setup")
		var gs *randvar.GridSampler
		var err error
		if cfg.Prebuilt != nil && cfg.Prebuilt.Grid() == pl.Grid {
			gs = cfg.Prebuilt
			telemetry.SpanAttrBool(ctx, "chipmc.prebuilt_embedding", true)
		} else {
			gs, err = randvar.NewGridSamplerContext(ctx, cfg.Proc, pl.Grid)
		}
		if err == nil {
			if ferr := fault.Failure(fault.SiteFFTSetup); ferr != nil {
				gs, err = nil, ferr
			}
		}
		endSetup()
		switch {
		case err == nil:
			// Numerical-health facts of the embedding: how much eigenvalue
			// clamping the torus absorbed and how large it had to grow.
			tm, tn := gs.TorusDims()
			telemetry.SpanAttrStr(ctx, "chipmc.torus", fmt.Sprintf("%dx%d", tm, tn))
			telemetry.SpanAttrFloat(ctx, "chipmc.clamp_bias", gs.ClampBias())
			if rt.Sampler == SamplerQMC {
				return newQMCPairField(ctx, cfg, name, gs, pl.Site, workers)
			}
			return newPairField(cfg, name, "pair#", gs, pl.Site, workers), nil
		case cfg.MaxGates != 0 && cfg.Sampler != SamplerFFT:
			// The explicit budget (already checked against n) admits the
			// dense field: degrade gracefully and record it. Auto becomes
			// dense; qmc keeps its low-discrepancy stream on the dense field.
			telemetry.Add("chipmc_sampler_fallback_total", 1)
			telemetry.SpanAttrBool(ctx, "chipmc.fallback", true)
			rt.Embedding = false
			if rt.Sampler == SamplerFFT {
				rt.Sampler = SamplerDense
			}
		default:
			return nil, lkerr.Wrap(lkerr.Numerical, op, err)
		}
	}
	return newDenseField(ctx, cfg, rt.Sampler == SamplerQMC, name, pl, workers)
}

// buildGateStates precomputes each gate's reachable states and cumulative
// state probabilities for inverse-CDF sampling.
func buildGateStates(cfg Config, nl *netlist.Netlist) ([]gateState, error) {
	const op = "chipmc.Run"
	gates := make([]gateState, len(nl.Gates))
	for g, gate := range nl.Gates {
		cc, err := cfg.Lib.Cell(gate.Type)
		if err != nil {
			return nil, lkerr.Wrap(lkerr.InvalidInput, op, err)
		}
		gs := gateState{}
		cumP := 0.0
		for i := range cc.States {
			p := cc.StateProb(cc.States[i].State, cfg.SignalProb)
			if p == 0 {
				continue
			}
			cumP += p
			gs.states = append(gs.states, &cc.States[i])
			gs.cum = append(gs.cum, cumP)
		}
		if len(gs.states) == 0 {
			return nil, lkerr.New(lkerr.InvalidInput, op,
				"gate %d (%s) has no reachable states", g, gate.Type)
		}
		gs.cum[len(gs.cum)-1] = 1
		gates[g] = gs
	}
	return gates, nil
}

// newCholesky assembles and factorizes the n×n within-die covariance over
// gate positions, Σ_ab = σ_WID²·ρ_wid(d_ab), the zero-mean field the dense
// field adds to the die-to-die shift.
func newCholesky(ctx context.Context, proc *spatial.Process, pl *placement.Placement) (*randvar.MVNSampler, error) {
	const op = "chipmc.Run"
	n := len(pl.Site)
	vw := proc.SigmaWID * proc.SigmaWID
	corr := proc.Prepare()
	endAssemble := telemetry.StartSpan(ctx, "chipmc.assemble")
	cov := linalg.NewMatrix(n, n)
	for a := 0; a < n; a++ {
		if err := lkerr.FromContext(ctx, op); err != nil {
			return nil, err
		}
		cov.Set(a, a, vw)
		for b := a + 1; b < n; b++ {
			c := vw * corr.WID(pl.Dist(a, b))
			cov.Set(a, b, c)
			cov.Set(b, a, c)
		}
	}
	endAssemble()
	endChol := telemetry.StartSpan(ctx, "chipmc.cholesky")
	sampler, err := randvar.NewMVNSampler(cov)
	endChol()
	if err != nil {
		// Factorization failures (non-PD covariance, NaN factor) are
		// numerical; the classification survives if already typed.
		return nil, lkerr.Wrap(lkerr.Numerical, op, err)
	}
	return sampler, nil
}
