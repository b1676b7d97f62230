// Package leakest estimates the mean and standard deviation of full-chip
// subthreshold leakage under process variations, considering logic
// structure and both die-to-die and spatially correlated within-die
// channel-length variation. It reproduces the Random-Gate (RG) methodology
// of Heloue, Azizi and Najm, "Modeling and Estimation of Full-Chip Leakage
// Current Considering Within-Die Correlation", DAC 2007.
//
// The flow mirrors the paper's Fig. 1. Three ingredients are combined:
//
//  1. a process description (channel-length µ/σ split into D2D and WID
//     components, a WID spatial correlation function, and random Vt sigma);
//  2. a standard-cell library characterized for leakage under that process
//     (a built-in synthetic 90 nm-class, 62-cell library is provided);
//  3. the high-level characteristics of the candidate design: cell-usage
//     histogram, gate count, and layout dimensions.
//
// From these, an Estimator produces full-chip leakage statistics in O(n) or
// O(1) time — either early (characteristics given as expectations) or late
// (characteristics extracted from a placed netlist). The O(n²) "true
// leakage" of a specific placed design is also available as the validation
// baseline.
//
// Quick start:
//
//	lib, _ := leakest.DefaultLibrary()            // characterize built-in cells
//	est, _ := leakest.NewEstimator(lib, nil)      // default process
//	design := leakest.Design{
//		Hist: hist, N: 250000, W: 1000, H: 1000, SignalProb: 0.5,
//	}
//	res, _ := est.EstimateContext(ctx, design, leakest.Auto)
//	fmt.Println(res.Mean, res.Std)
//
// Every operation has one entry point taking a context (EstimateContext,
// TrueLeakageContext, MonteCarloContext, CharacterizeContext); the
// Estimator's fields — Tiles, Sampler, the tail fields and Budget — shape
// the request.
package leakest

import (
	"context"
	"fmt"

	"leakest/internal/cells"
	"leakest/internal/charlib"
	"leakest/internal/core"
	"leakest/internal/lkerr"
	"leakest/internal/netlist"
	"leakest/internal/placement"
	"leakest/internal/spatial"
	"leakest/internal/stats"
	"leakest/internal/telemetry"
)

// Re-exported model types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// Process describes the variation model (µ_L, D2D/WID sigma split, WID
	// spatial correlation, random Vt sigma).
	Process = spatial.Process
	// CorrFunc is a within-die spatial correlation function ρ(d).
	CorrFunc = spatial.CorrFunc
	// ExpCorr, GaussCorr, SphericalCorr and TruncatedExpCorr are the
	// built-in correlation families.
	ExpCorr          = spatial.ExpCorr
	GaussCorr        = spatial.GaussCorr
	SphericalCorr    = spatial.SphericalCorr
	TruncatedExpCorr = spatial.TruncatedExpCorr
	// Library is a leakage-characterized cell library.
	Library = charlib.Library
	// CharConfig controls cell characterization.
	CharConfig = charlib.Config
	// Cell is a transistor-level standard-cell description.
	Cell = cells.Cell
	// Design holds the high-level design characteristics of the paper's
	// Fig. 1 (histogram, gate count, layout dimensions, signal
	// probability).
	Design = core.DesignSpec
	// Result is an estimation outcome.
	Result = core.Result
	// TileStat is one tile's contribution in a tiled estimation (Result.TileStats).
	TileStat = core.TileStat
	// Mode selects analytic-fit or MC-simplified cell statistics.
	Mode = core.Mode
	// Histogram is a cell-usage frequency distribution.
	Histogram = stats.Histogram
	// Netlist is a gate-level netlist for late-mode estimation.
	Netlist = netlist.Netlist
	// Placement assigns netlist gates to the uniform site grid.
	Placement = placement.Placement
	// Grid is the rectangular site array of the full-chip model.
	Grid = placement.Grid
)

// Estimation modes.
const (
	// Analytic uses fitted (a,b,c) cell moments and the exact
	// leakage-correlation mapping.
	Analytic = core.Analytic
	// MCSimplified uses Monte-Carlo cell moments with ρ_leak = ρ_L.
	MCSimplified = core.MCSimplified
)

// Method selects the estimation algorithm.
type Method int

// Available estimation methods.
const (
	// Auto follows the paper's advice: the linear-time algorithm for small
	// designs, the constant-time polar integral beyond autoThreshold gates.
	Auto Method = iota
	// Linear is the exact O(n) distance-histogram method (Eq. 17).
	Linear
	// Integral2D is the O(1) rectangular double integral (Eq. 20).
	Integral2D
	// Polar is the O(1) single polar integral (Eqs. 25–26) on the exact
	// angular weight, so it applies to every correlation range.
	Polar
	// Naive ignores spatial correlation (independent gates) — the early
	// estimator baseline; provided for comparison only.
	Naive
)

// autoThreshold is the gate count above which Auto switches from the exact
// linear method to constant-time integration (the paper observes the linear
// method runs in under a second below about a thousand gates).
const autoThreshold = 1000

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case Linear:
		return "linear"
	case Integral2D:
		return "integral-2d"
	case Polar:
		return "polar-1d"
	case Naive:
		return "naive"
	default:
		return "auto"
	}
}

// DefaultProcess returns the synthetic 90 nm-class process description.
func DefaultProcess() *Process { return spatial.Default90nm() }

// BuiltinCells returns the full built-in 62-cell library (transistor-level
// descriptions, not yet characterized).
func BuiltinCells() []*Cell { return cells.Library() }

// CharacterizeContext runs leakage characterization of transistor-level
// cells under cfg, producing a Library usable by NewEstimator. ctx is
// checked before every (cell, state) characterization and periodically
// inside each Monte-Carlo loop, so a cancel or deadline stops the work
// within one check interval and returns a typed Canceled /
// DeadlineExceeded error.
func CharacterizeContext(ctx context.Context, cellList []*Cell, cfg CharConfig) (lib *Library, err error) {
	defer lkerr.RecoverInto(&err, "leakest.Characterize")
	return charlib.CharacterizeContext(ctx, cellList, cfg)
}

// DefaultLibrary characterizes (once per process, cached) the built-in
// 62-cell library under the default process.
func DefaultLibrary() (*Library, error) { return charlib.SharedFull() }

// LoadLibrary reads a characterized library previously written with
// Library.SaveFile.
func LoadLibrary(path string) (*Library, error) { return charlib.LoadFile(path) }

// NewHistogram builds a cell-usage histogram from name→weight pairs.
func NewHistogram(weights map[string]float64) (*Histogram, error) {
	return stats.NewHistogram(weights)
}

// Estimator binds a characterized library to a process description and
// produces full-chip leakage estimates.
type Estimator struct {
	lib  *Library
	proc *Process
	mode Mode
	// ApplyVtMean multiplies estimated means by the random-Vt lognormal
	// factor (§2.1); the variance is unaffected, as the paper argues and
	// the Vt-ablation experiment confirms.
	ApplyVtMean bool
	// Workers is the goroutine count for the long loops (the O(n²) pair
	// sum, the linear estimator's distance columns, and the full-chip
	// Monte Carlo): 0 selects runtime.GOMAXPROCS(0), 1 forces the serial
	// path. Every result is bitwise identical at any setting — see the
	// determinism contract in internal/parallel.
	Workers int
	// Sampler selects the Monte-Carlo field construction: SamplerAuto
	// (default) routes small designs to the dense-Cholesky reference and
	// large ones to the O(S log S) circulant-embedding FFT sampler;
	// SamplerDense, SamplerFFT, and SamplerQMC force one path. SamplerQMC
	// replaces the pseudo-random trial deviates with a scrambled-Sobol
	// low-discrepancy sequence — identical distribution, materially fewer
	// trials to a given standard error on typical designs.
	Sampler MCSampler
	// Spec is a full-chip leakage spec in amperes. When > 0, MonteCarlo
	// runs additionally report the exceedance probability P[I_leak > Spec]
	// — one minus the parametric yield at the spec — in Result.Tail.
	Spec float64
	// Quantiles lists probabilities (each strictly inside (0,1)) at which
	// MonteCarlo runs report leakage quantiles in Result.Tail; empty
	// requests none.
	Quantiles []float64
	// TailTrials is the importance-sampled trial budget for deep-tail
	// exceedance estimation (the mean-shifted proposal of
	// chipmc.TailConfig); 0 estimates the exceedance from the primary
	// trials alone. Requires Spec > 0.
	TailTrials int
	// Tiles > 1 activates the tiled pipeline of DESIGN.md §16: the die is
	// partitioned into a Tiles×Tiles arrangement, per-tile moments are
	// estimated independently, and the chip-level moments are combined
	// through the inter-tile covariance. For Linear (and Auto) the
	// combination is exact — bitwise identical to the monolithic estimator
	// at any tile or worker count — and the Result additionally carries
	// per-tile statistics in Result.TileStats. Integral2D gains centroid
	// cross terms; Polar and Naive do not tile and are refused. MonteCarlo
	// runs switch to per-tile FFT field sampling, lifting the gate budget
	// to millions (see chipmc.DefaultMaxGatesTiled). 0 and 1 select the
	// monolithic paths.
	Tiles int
	// Budget bounds the work of EstimateContext, EstimateStream and
	// TrueLeakageContext; when non-zero they run the degradation ladder (see
	// EstimateBudget). The zero value imposes no bound.
	Budget EstimateBudget
}

// tailConfig assembles the chipmc tail configuration from the estimator's
// tail fields; nil when none is set. A set field always reaches chipmc,
// whose validation refuses, for instance, TailTrials without a Spec.
func (e *Estimator) tailConfig() *TailConfig {
	if e.Spec == 0 && len(e.Quantiles) == 0 && e.TailTrials == 0 {
		return nil
	}
	return &TailConfig{Spec: e.Spec, Quantiles: e.Quantiles, ISTrials: e.TailTrials}
}

// NewEstimator creates an estimator. proc may be nil to use the process the
// library was characterized under; a non-nil proc may change the spatial
// correlation model but must keep the same (µ_L, σ_L).
func NewEstimator(lib *Library, proc *Process) (*Estimator, error) {
	if lib == nil {
		return nil, fmt.Errorf("leakest: nil library")
	}
	if proc == nil {
		proc = lib.Process
	}
	if err := proc.Validate(); err != nil {
		return nil, fmt.Errorf("leakest: %w", err)
	}
	return &Estimator{lib: lib, proc: proc, mode: Analytic}, nil
}

// SetMode switches between Analytic (default) and MCSimplified statistics.
func (e *Estimator) SetMode(m Mode) { e.mode = m }

// Library returns the estimator's characterized library.
func (e *Estimator) Library() *Library { return e.lib }

// Process returns the estimator's process description.
func (e *Estimator) Process() *Process { return e.proc }

// model builds the RG model for a design.
func (e *Estimator) model(design Design) (*core.Model, error) {
	return e.newModelCtx(context.Background(), design)
}

// newModelCtx builds the RG model for a design and stamps the estimator's
// worker count onto it, so every model-backed loop shares one setting.
func (e *Estimator) newModelCtx(ctx context.Context, design Design) (*core.Model, error) {
	m, err := core.NewModelCtx(ctx, e.lib, e.proc, design, e.mode)
	if err != nil {
		return nil, err
	}
	m.Workers = e.Workers
	return m, nil
}

// EstimateContext returns the full-chip leakage statistics of a design
// described by its high-level characteristics (early-mode estimation).
// The design, Tiles and method are validated at entry (typed InvalidInput
// errors), ctx is checked periodically inside the model-construction and
// linear-method loops, and panics escaping the numeric kernels are
// converted to typed Numerical errors. Under a non-zero Budget the method
// is ignored and the degradation ladder serves the estimate from the O(n)
// rung down. The returned Result carries a per-stage timing breakdown;
// attach a ProgressFunc with WithProgress to observe long loops while they
// run.
func (e *Estimator) EstimateContext(ctx context.Context, design Design, method Method) (res Result, err error) {
	defer lkerr.RecoverInto(&err, "leakest.Estimate")
	if err := design.Validate(); err != nil {
		return Result{}, err
	}
	if e.Tiles < 0 {
		return Result{}, lkerr.New(lkerr.InvalidInput, "leakest.Estimate", "negative Tiles %d", e.Tiles)
	}
	if method < Auto || method > Naive {
		return Result{}, lkerr.New(lkerr.InvalidInput, "leakest.Estimate", "unknown method %d", int(method))
	}
	ctx, tr := telemetry.EnsureTrace(ctx)
	ctx, endEst := telemetry.WithSpan(ctx, "estimate")
	defer endEst()
	var t tiling
	if e.Tiles > 1 {
		t.tiles = e.Tiles
	}
	return e.estimate(ctx, tr, design, method, t)
}

// tiling is the tile arrangement an estimate runs on: tiles per axis, 0 for
// the monolithic estimators, and optionally the per-tile gate counts a
// stream scan measured (nil: the model's own allocation).
type tiling struct {
	tiles  int
	counts []int
}

// linear runs the exact O(n) method on t: monolithic without tiles, else
// the tiled linear method, bitwise the monolithic result plus TileStats
// (§16). Scanned counts apply when the model grid admits the same partition
// as the site grid; on degenerate shapes the model's own largest-remainder
// allocation serves.
func (t tiling) linear(ctx context.Context, m *core.Model) (Result, error) {
	if t.tiles == 0 {
		return m.EstimateLinearCtx(ctx)
	}
	counts := t.counts
	if len(counts) != m.TiledPartitionLen(t.tiles) {
		counts = nil
	}
	return m.EstimateTiledCtx(ctx, t.tiles, counts)
}

// estimate is the path EstimateContext and EstimateStream share once the
// design is known: model, then the method (or, under a non-zero Budget, the
// degradation ladder from the O(n) rung down), then done.
func (e *Estimator) estimate(ctx context.Context, tr *telemetry.Trace, design Design, method Method, t tiling) (Result, error) {
	telemetry.SpanAttrInt(ctx, "gates", int64(design.N))
	m, err := e.newModelCtx(ctx, design)
	if err != nil {
		return Result{}, err
	}
	var res Result
	if e.Budget != (EstimateBudget{}) {
		res, err = e.ladder(ctx, m, e.rungs(nil, t))
	} else {
		res, err = e.dispatch(ctx, m, method, t)
	}
	return e.done(ctx, tr, res, err)
}

func (e *Estimator) dispatch(ctx context.Context, m *core.Model, method Method, t tiling) (Result, error) {
	if t.tiles > 0 {
		switch method {
		case Linear, Auto:
			return t.linear(ctx, m)
		case Integral2D:
			return m.EstimateTiledIntegral2DCtx(ctx, t.tiles, nil)
		default:
			return Result{}, lkerr.New(lkerr.InvalidInput, "leakest.Estimate",
				"method %s does not support tiling; use linear, auto, or integral-2d", method)
		}
	}
	switch method {
	case Linear:
		return m.EstimateLinearCtx(ctx)
	case Integral2D:
		return m.EstimateIntegral2DCtx(ctx)
	case Polar:
		return m.EstimatePolarCtx(ctx)
	case Naive:
		return m.EstimateNaiveCtx(ctx)
	}
	// Auto: the exact linear method for small designs, O(1) beyond.
	if m.Spec.N <= autoThreshold {
		return m.EstimateLinearCtx(ctx)
	}
	return m.EstimatePolarCtx(ctx)
}

// done completes a successful run: the optional Vt mean correction, the
// outcome attributes on the current span, and the stage timings.
func (e *Estimator) done(ctx context.Context, tr *telemetry.Trace, res Result, err error) (Result, error) {
	if err != nil {
		return Result{}, err
	}
	res = e.finish(res)
	resultAttrs(ctx, res)
	res.Timings = tr.Stages()
	return res, nil
}

// finish applies the optional Vt mean correction.
func (e *Estimator) finish(res Result) Result {
	if e.ApplyVtMean {
		factor := e.lib.VtMeanFactor()
		res.Mean *= factor
		res.Note = appendNote(res.Note, fmt.Sprintf("mean ×%.3f random-Vt correction", factor))
	}
	return res
}

func appendNote(existing, extra string) string {
	if existing == "" {
		return extra
	}
	return existing + "; " + extra
}

// ExtractDesign derives the high-level characteristics from a placed
// netlist (late-mode extraction).
func (e *Estimator) ExtractDesign(nl *Netlist, pl *Placement, signalProb float64) (Design, error) {
	return core.ExtractSpec(nl, pl, signalProb)
}

// EstimateNetlist performs late-mode estimation: it extracts the design
// characteristics from the placed netlist and estimates with the chosen
// method.
func (e *Estimator) EstimateNetlist(nl *Netlist, pl *Placement, signalProb float64, method Method) (Result, error) {
	design, err := e.ExtractDesign(nl, pl, signalProb)
	if err != nil {
		return Result{}, err
	}
	return e.EstimateContext(context.Background(), design, method)
}

// TrueLeakageContext computes the O(n²) pairwise-covariance statistics of a
// specific placed design — the expensive late-mode baseline the estimators
// are validated against. The truth pass checks ctx once per gate —
// reporting progress there — so a cancel stops the computation within one
// gate's scan and returns a typed Canceled / DeadlineExceeded error. Under a non-zero
// Budget the degradation ladder falls O(n²) → O(n) → O(1) whenever a rung
// trips it; Tiles is ignored (truth is monolithic). The Result carries the
// extraction/model/pair-loop timing breakdown.
func (e *Estimator) TrueLeakageContext(ctx context.Context, nl *Netlist, pl *Placement, signalProb float64) (res Result, err error) {
	defer lkerr.RecoverInto(&err, "leakest.TrueLeakage")
	ctx, tr := telemetry.EnsureTrace(ctx)
	ctx, endTruth := telemetry.WithSpan(ctx, "true_leakage")
	defer endTruth()
	endExtract := telemetry.StartSpan(ctx, "core.extract")
	design, err := e.ExtractDesign(nl, pl, signalProb)
	endExtract()
	if err != nil {
		return Result{}, err
	}
	telemetry.SpanAttrInt(ctx, "gates", int64(design.N))
	m, err := e.newModelCtx(ctx, design)
	if err != nil {
		return Result{}, err
	}
	// Under a zero Budget the O(n²) rung is always admitted and never
	// degrades: its error is final, as for an unbudgeted call.
	res, err = e.ladder(ctx, m, e.rungs(func(ctx context.Context, m *core.Model) (Result, error) {
		return core.TrueStatsCtx(ctx, m, nl, pl)
	}, tiling{}))
	return e.done(ctx, tr, res, err)
}

// MaxLeakageSignalProb returns the signal probability that maximizes the
// design's mean leakage — the paper's conservative setting when eventual
// signal probabilities are unknown (§2.1.4).
func (e *Estimator) MaxLeakageSignalProb(hist *Histogram) (float64, error) {
	return charlib.MaximizingSignalProb(e.lib, hist, e.mode == MCSimplified)
}

// VtMeanFactor returns the multiplicative mean-leakage correction due to
// random Vt fluctuation under the estimator's process.
func (e *Estimator) VtMeanFactor() float64 { return e.lib.VtMeanFactor() }
