package leakest

import (
	"context"
	"fmt"
	"io"
	"os"

	"leakest/internal/charlib"
	"leakest/internal/chipmc"
	"leakest/internal/core"
	"leakest/internal/iscas"
	"leakest/internal/lkerr"
	"leakest/internal/netlist"
	"leakest/internal/placement"
	"leakest/internal/stats"
	"leakest/internal/telemetry"
)

// arityOf builds the pin-count lookup the netlist substrate needs from a
// characterized library.
func arityOf(lib *Library) netlist.CellArity {
	return func(typ string) (int, error) {
		cc, err := lib.Cell(typ)
		if err != nil {
			return 0, err
		}
		return cc.NumInputs, nil
	}
}

// RandomCircuit generates a random netlist of n gates whose types follow
// hist — a member of the paper's "set of all designs sharing the same
// high-level characteristics".
func RandomCircuit(lib *Library, seed int64, name string, n, numPI int, hist *Histogram) (*Netlist, error) {
	rng := stats.NewRNG(seed, "public/"+name)
	return netlist.RandomCircuit(rng, name, n, numPI, hist, arityOf(lib))
}

// AutoPlace places a netlist's gates on distinct uniformly random sites of
// an automatically sized square grid at the default site pitch.
func AutoPlace(nl *Netlist, seed int64) (*Placement, error) {
	defer telemetry.TimeStage("placement.autoplace")()
	grid, err := placement.AutoGrid(len(nl.Gates))
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed, "place/"+nl.Name)
	return placement.Random(rng, grid, len(nl.Gates))
}

// ReadBench parses an ISCAS85 ".bench" netlist, mapping generic Boolean
// operators to the built-in library's X1 cells.
func ReadBench(r io.Reader, name string) (*Netlist, error) {
	return netlist.ReadBench(r, name, netlist.DefaultTechMap())
}

// ReadBenchFile parses a ".bench" netlist from a file.
func ReadBenchFile(path string) (*Netlist, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBench(f, trimExt(path))
}

// WriteBench renders a netlist in ISCAS85 ".bench" format.
func WriteBench(w io.Writer, nl *Netlist) error {
	return netlist.WriteBench(w, nl, netlist.DefaultTechMap())
}

func trimExt(path string) string {
	base := path
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			base = path[i+1:]
			break
		}
	}
	for i := len(base) - 1; i >= 0; i-- {
		if base[i] == '.' {
			return base[:i]
		}
	}
	return base
}

// StreamHeader is the design line of a leakest-stream placed netlist (the
// streaming tile-ordered interchange of DESIGN.md §16).
type StreamHeader = netlist.StreamHeader

// WriteStream renders a placed netlist in leakest-stream format: gates
// grouped by the tiles×tiles partition in tile-index order, ready for
// EstimateStream.
func WriteStream(w io.Writer, nl *Netlist, pl *Placement, tiles int) error {
	return netlist.WritePlaced(w, nl, pl, tiles)
}

// WriteSyntheticStream streams a synthetic placed design of the given gate
// count straight to w — the generator behind the multi-million-gate scale
// experiments — occupying the first gates sites in tile order with cell
// types assigned round-robin.
func WriteSyntheticStream(w io.Writer, name string, rows, cols int, siteW, siteH float64, tiles int, types []string, gates int) error {
	return netlist.WriteSyntheticStream(w, name, rows, cols, siteW, siteH, tiles, types, gates)
}

// EstimateStream performs late-mode estimation from a leakest-stream placed
// netlist without materializing it. One pass over the stream accumulates the
// cell-usage histogram, the gate count, and the per-tile gate populations —
// peak memory is O(cell types) + O(tiles²) + O(scan buffer), independent of
// the gate count — then the tiled linear estimator of DESIGN.md §16 combines
// per-tile moments exactly through the inter-tile covariance. The global
// moments are bitwise identical to the monolithic linear estimator fed the
// same (histogram, N, W, H); Result.TileStats carries the per-tile picture
// using the stream's actual per-tile populations when the model partition
// matches the stream's (it does whenever the header's tiles fit both grid
// dimensions).
func (e *Estimator) EstimateStream(ctx context.Context, r io.Reader, signalProb float64) (res Result, err error) {
	defer lkerr.RecoverInto(&err, "leakest.EstimateStream")
	ctx, tr := telemetry.EnsureTrace(ctx)
	ctx, endEst := telemetry.WithSpan(ctx, "estimate.stream")
	defer endEst()

	endScan := telemetry.StartSpan(ctx, "netlist.stream_scan")
	// Per-type tallies live in a small linear-scanned slice, not a map: the
	// comparison `names[i] == string(typ)` compiles without materializing
	// the key, so the per-gate callback stays allocation-free (a map
	// increment would allocate one string per gate).
	var (
		typeNames []string
		typeTally []float64
		tileGates []int
		rep       *telemetry.Reporter
		seen      int64
	)
	hdr, err := netlist.ScanPlaced(r, netlist.StreamVisitor{
		Design: func(h StreamHeader) error {
			tileGates = make([]int, len(placement.Partition(h.Grid(), h.Tiles)))
			rep = telemetry.StartProgress(ctx, "netlist.stream_scan", int64(h.Gates))
			return nil
		},
		Gate: func(ti int, typ []byte, _, _ int) error {
			idx := -1
			for i := range typeNames {
				if typeNames[i] == string(typ) {
					idx = i
					break
				}
			}
			if idx >= 0 {
				typeTally[idx]++
			} else {
				typeNames = append(typeNames, string(typ))
				typeTally = append(typeTally, 1)
			}
			tileGates[ti]++
			seen++
			if seen%(1<<16) == 0 {
				rep.Tick(seen)
				return ctx.Err()
			}
			return nil
		},
	})
	rep.Done(seen)
	endScan()
	if err != nil {
		if cerr := lkerr.FromContext(ctx, "leakest.EstimateStream"); cerr != nil {
			return Result{}, cerr
		}
		return Result{}, err
	}
	telemetry.SamplePeakAlloc()
	telemetry.SpanAttrInt(ctx, "gates", int64(hdr.Gates))
	telemetry.SpanAttrInt(ctx, "tiles", int64(len(tileGates)))

	typeCounts := make(map[string]float64, len(typeNames))
	for i, name := range typeNames {
		typeCounts[name] = typeTally[i]
	}
	hist, err := stats.NewHistogram(typeCounts)
	if err != nil {
		return Result{}, err
	}
	design := Design{
		Hist:       hist,
		N:          hdr.Gates,
		W:          float64(hdr.Cols) * hdr.SiteW,
		H:          float64(hdr.Rows) * hdr.SiteH,
		SignalProb: signalProb,
	}
	if err := design.Validate(); err != nil {
		return Result{}, err
	}
	m, err := e.newModelCtx(ctx, design)
	if err != nil {
		return Result{}, err
	}
	// The stream's per-tile populations apply when the model grid admits the
	// same tiles×tiles partition as the site grid; on degenerate shapes fall
	// back to the estimator's own largest-remainder allocation.
	counts := tileGates
	if len(counts) != m.TiledPartitionLen(hdr.Tiles) {
		counts = nil
	}
	res, err = m.EstimateTiledCtx(ctx, hdr.Tiles, counts)
	telemetry.SamplePeakAlloc()
	return e.done(ctx, tr, res, err)
}

// ISCASCircuit synthesizes one of the ISCAS85 stand-in benchmarks (c432 …
// c7552) with its published gate count and a function-appropriate cell mix,
// placed on the uniform site grid. Deterministic per seed.
func ISCASCircuit(lib *Library, name string, seed int64) (*Netlist, *Placement, error) {
	ckt, err := iscas.Build(name, seed, arityOf(lib))
	if err != nil {
		return nil, nil, err
	}
	return ckt.Netlist, ckt.Placement, nil
}

// ISCASNames lists the available benchmark circuits, smallest first.
func ISCASNames() []string { return iscas.Names() }

// MonteCarloResult summarizes a full-chip Monte-Carlo run.
type MonteCarloResult = chipmc.Result

// TailStats is the distribution-tail summary — quantiles, exceedance at a
// spec, importance-sampling diagnostics — attached to MonteCarloResult.Tail
// when the estimator's Spec/Quantiles/TailTrials fields request it.
type TailStats = chipmc.TailStats

// QuantilePoint is one reported leakage quantile.
type QuantilePoint = chipmc.QuantilePoint

// TailConfig is the full tail-estimation configuration (spec, quantile
// list, importance-sampled trial budget, tilt override, ESS floor).
type TailConfig = chipmc.TailConfig

// MCSampler selects how the Monte Carlo constructs the correlated
// channel-length field per trial (see the Estimator.Sampler field).
type MCSampler = chipmc.Sampler

// The sampler choices: SamplerAuto picks per design, SamplerDense forces
// the O(n³)-setup dense-Cholesky reference, SamplerFFT forces the
// O(S log S) circulant-embedding grid sampler, and SamplerQMC draws trials
// from a scrambled-Sobol low-discrepancy sequence with batched FFT pair
// fields — same distribution, materially fewer trials to a given standard
// error.
const (
	SamplerAuto  = chipmc.SamplerAuto
	SamplerDense = chipmc.SamplerDense
	SamplerFFT   = chipmc.SamplerFFT
	SamplerQMC   = chipmc.SamplerQMC
)

// ParseSampler maps a flag-style name ("auto", "dense", "fft", "qmc") to
// the corresponding MCSampler, with a typed InvalidInput error on anything
// else.
func ParseSampler(name string) (MCSampler, error) { return chipmc.ParseSampler(name) }

// ParseMethod maps a flag-style name ("auto", "linear", "integral",
// "polar", "naive") to the corresponding Method, with a typed InvalidInput
// error on anything else.
func ParseMethod(name string) (Method, error) {
	switch name {
	case "auto":
		return Auto, nil
	case "linear":
		return Linear, nil
	case "integral":
		return Integral2D, nil
	case "polar":
		return Polar, nil
	case "naive":
		return Naive, nil
	}
	return 0, lkerr.New(lkerr.InvalidInput, "leakest.ParseMethod",
		"unknown method %q (auto|linear|integral|polar|naive)", name)
}

// MonteCarloContext samples the full-chip leakage distribution of a placed
// design directly: a spatially correlated channel-length field is drawn
// per trial and every gate's leakage is evaluated from its
// characterization curve. Small designs use a dense field factorization;
// larger ones (up to hundreds of thousands of gates) use the FFT grid
// sampler, per the estimator's Sampler setting. It serves as an
// independent ground truth for the analytic estimators, so it does not
// degrade: Budget is ignored. ctx is checked once per covariance-assembly
// row and once per chip-level trial, so a cancel or deadline stops the run
// within one check interval. Oversized designs (beyond the selected
// sampler's gate limit) return a typed BudgetExceeded error suggesting the
// analytic estimators.
func (e *Estimator) MonteCarloContext(ctx context.Context, nl *Netlist, pl *Placement, signalProb float64, samples int, seed int64) (res MonteCarloResult, err error) {
	defer lkerr.RecoverInto(&err, "leakest.MonteCarlo")
	return chipmc.RunContext(ctx, chipmc.Config{
		Lib:        e.lib,
		Proc:       e.proc,
		SignalProb: signalProb,
		Samples:    samples,
		Seed:       seed,
		Workers:    e.Workers,
		Sampler:    e.Sampler,
		Tiles:      e.Tiles,
		Tail:       e.tailConfig(),
	}, nl, pl)
}

// DesignStatsAtSignalProb returns the per-gate effective leakage mean and
// standard deviation of a design histogram at signal probability p — the
// quantity swept in the paper's Fig. 3.
func (e *Estimator) DesignStatsAtSignalProb(hist *Histogram, p float64) (mean, std float64, err error) {
	return charlib.DesignStatsAtP(e.lib, hist, p, e.mode == MCSimplified)
}

// SaveLibrary writes a characterized library to a file for reuse by the
// command-line tools.
func SaveLibrary(lib *Library, path string) error {
	if lib == nil {
		return fmt.Errorf("leakest: nil library")
	}
	return lib.SaveFile(path)
}

// Distribution is a two-moment lognormal picture of full-chip leakage,
// providing quantiles, exceedance probabilities and yield budgets on top of
// the estimated (mean, σ).
type Distribution = core.Distribution

// VarianceBreakdown decomposes the leakage variance into independent,
// die-to-die, and within-die-correlation contributions.
type VarianceBreakdown = core.VarianceBreakdown

// DistributionOf matches a lognormal distribution to an estimation result
// (the Wilkinson/Fenton approximation; validated against the full-chip
// Monte Carlo).
func DistributionOf(r Result) (Distribution, error) { return core.DistributionOf(r) }

// Breakdown returns the variance decomposition of a design under the
// linear-time estimator, explaining how much of the spread is independent
// noise, shared die-to-die shift, and within-die correlation.
func (e *Estimator) Breakdown(design Design) (VarianceBreakdown, error) {
	m, err := e.model(design)
	if err != nil {
		return VarianceBreakdown{}, err
	}
	return m.BreakdownLinear()
}

// FastTrueLeakage approximates the O(n²) true leakage by spatial tiling
// (tile edge in µm; 0 selects an automatic fraction of the correlation
// length). It trades sub-percent σ accuracy for near-linear runtime on
// large placed designs.
func (e *Estimator) FastTrueLeakage(nl *Netlist, pl *Placement, signalProb, tile float64) (res Result, err error) {
	defer lkerr.RecoverInto(&err, "leakest.FastTrueLeakage")
	design, err := e.ExtractDesign(nl, pl, signalProb)
	if err != nil {
		return Result{}, err
	}
	m, err := e.model(design)
	if err != nil {
		return Result{}, err
	}
	res, err = core.FastTrueStats(m, nl, pl, tile)
	if err != nil {
		return Result{}, err
	}
	return e.finish(res), nil
}

// Block is one rectangular region of a heterogeneous floorplan, with its
// own cell population (see EstimateFloorplan).
type Block = core.Block

// FloorplanResult carries combined and per-block floorplan statistics.
type FloorplanResult = core.FloorplanResult

// EstimateFloorplan performs floorplan-level early estimation: each
// non-overlapping block is its own Random-Gate population, intra-block
// variance is exact (linear method) and inter-block covariance is
// aggregated over block tiles. An extension of the paper's single-
// population model to heterogeneous chips; validated against placed-design
// truth in the core tests.
func (e *Estimator) EstimateFloorplan(blocks []Block) (FloorplanResult, error) {
	fp, err := core.EstimateFloorplan(e.lib, e.proc, blocks, e.mode)
	if err != nil {
		return FloorplanResult{}, err
	}
	fp.Total = e.finish(fp.Total)
	return fp, nil
}
