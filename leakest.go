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
//	res, _ := est.Estimate(design, leakest.Auto)
//	fmt.Println(res.Mean, res.Std)
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
	// designs, the constant-time integral beyond autoThreshold gates.
	Auto Method = iota
	// Linear is the exact O(n) distance-histogram method (Eq. 17).
	Linear
	// Integral2D is the O(1) rectangular double integral (Eq. 20).
	Integral2D
	// Polar is the O(1) single polar integral (Eqs. 25–26); it requires
	// the correlation range to fit inside the die.
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

// Characterize runs leakage characterization of transistor-level cells
// under cfg, producing a Library usable by NewEstimator.
func Characterize(cellList []*Cell, cfg CharConfig) (*Library, error) {
	return CharacterizeContext(context.Background(), cellList, cfg)
}

// CharacterizeContext is Characterize with cancellation: ctx is checked
// before every (cell, state) characterization and periodically inside each
// Monte-Carlo loop, so a cancel or deadline stops the work within one check
// interval and returns a typed Canceled / DeadlineExceeded error.
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
}

// tailConfig assembles the chipmc tail configuration from the estimator's
// tail fields; nil when no tail statistics are requested.
func (e *Estimator) tailConfig() *TailConfig {
	if e.Spec == 0 && len(e.Quantiles) == 0 {
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

// Estimate returns the full-chip leakage statistics of a design described
// by its high-level characteristics (early-mode estimation).
func (e *Estimator) Estimate(design Design, method Method) (Result, error) {
	return e.EstimateContext(context.Background(), design, method)
}

// EstimateContext is Estimate with cancellation and telemetry. The design
// is validated at entry (typed InvalidInput errors), ctx is checked
// periodically inside the model-construction and linear-method loops, and
// panics escaping the numeric kernels are converted to typed Numerical
// errors. The returned Result carries a per-stage timing breakdown; attach
// a ProgressFunc with WithProgress to observe long loops while they run.
func (e *Estimator) EstimateContext(ctx context.Context, design Design, method Method) (res Result, err error) {
	defer lkerr.RecoverInto(&err, "leakest.Estimate")
	if err := design.Validate(); err != nil {
		return Result{}, err
	}
	ctx, tr := telemetry.EnsureTrace(ctx)
	ctx, endEst := telemetry.WithSpan(ctx, "estimate")
	defer endEst()
	telemetry.SpanAttrInt(ctx, "gates", int64(design.N))
	m, err := e.newModelCtx(ctx, design)
	if err != nil {
		return Result{}, err
	}
	res, err = e.dispatch(ctx, m, method)
	if err != nil {
		return Result{}, err
	}
	res = e.finish(res)
	telemetry.SpanAttrStr(ctx, "method", res.Method)
	res.Timings = tr.Stages()
	return res, nil
}

func (e *Estimator) dispatch(ctx context.Context, m *core.Model, method Method) (Result, error) {
	if e.Tiles < 0 {
		return Result{}, lkerr.New(lkerr.InvalidInput, "leakest.Estimate",
			"negative Tiles %d", e.Tiles)
	}
	if e.Tiles > 1 {
		switch method {
		case Linear, Auto:
			return m.EstimateTiledCtx(ctx, e.Tiles, nil)
		case Integral2D:
			return m.EstimateTiledIntegral2DCtx(ctx, e.Tiles, nil)
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
	case Auto:
		if m.Spec.N <= autoThreshold {
			return m.EstimateLinearCtx(ctx)
		}
		if res, err := m.EstimatePolarCtx(ctx); err == nil {
			return res, nil
		}
		return m.EstimateIntegral2DCtx(ctx)
	default:
		return Result{}, lkerr.New(lkerr.InvalidInput, "leakest.Estimate",
			"unknown method %d", int(method))
	}
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
	return e.Estimate(design, method)
}

// TrueLeakage computes the O(n²) pairwise-covariance statistics of a
// specific placed design — the expensive late-mode baseline the estimators
// are validated against.
func (e *Estimator) TrueLeakage(nl *Netlist, pl *Placement, signalProb float64) (Result, error) {
	return e.TrueLeakageContext(context.Background(), nl, pl, signalProb)
}

// TrueLeakageContext is TrueLeakage with cancellation and telemetry: the
// O(n²) pair loop checks ctx once per row — reporting progress there — so a
// cancel stops the computation within one row's work and returns a typed
// Canceled / DeadlineExceeded error. The Result carries the
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
	res, err = core.TrueStatsCtx(ctx, m, nl, pl)
	if err != nil {
		return Result{}, err
	}
	res = e.finish(res)
	telemetry.SpanAttrStr(ctx, "method", res.Method)
	res.Timings = tr.Stages()
	return res, nil
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
