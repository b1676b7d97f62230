// Command leakest estimates full-chip leakage statistics with the
// Random-Gate model of the DAC 2007 paper.
//
// Early mode (design characteristics as expectations):
//
//	leakest -n 250000 -w 1000 -h 1000 -hist "INV_X1:3,NAND2_X1:2,NOR2_X1:1"
//
// Late mode (extract characteristics from a placed netlist):
//
//	leakest -bench c432.bench [-truth]
//
// A characterized library JSON (from cellchar) can be supplied with -lib;
// otherwise the built-in ISCAS cell subset is characterized on the fly.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"leakest"
	"leakest/internal/cells"
	"leakest/internal/netlist"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "leakest: "+format+"\n", args...)
	os.Exit(1)
}

// meter renders a live single-line progress display (-v) and remembers the
// last report so an interrupted run can say how far it got.
type meter struct {
	verbose bool
	last    atomic.Value // leakest.Progress
}

func (m *meter) report(p leakest.Progress) {
	m.last.Store(p)
	if !m.verbose {
		return
	}
	if p.Final {
		// A final report with Done < Total is a stage that stopped early
		// (cancel, deadline, budget); render its real percentage.
		fmt.Fprintf(os.Stderr, "\r%-24s %d/%d (%.1f%%) in %s            \n",
			p.Stage, p.Done, p.Total, p.Percent(), p.Elapsed.Round(time.Millisecond))
		return
	}
	eta := "?"
	if p.ETA >= 0 {
		eta = p.ETA.Round(time.Second).String()
	}
	fmt.Fprintf(os.Stderr, "\r%-24s %d/%d (%.1f%%) eta %s      ",
		p.Stage, p.Done, p.Total, p.Percent(), eta)
}

// partial returns the last progress report seen, if any.
func (m *meter) partial() (leakest.Progress, bool) {
	p, ok := m.last.Load().(leakest.Progress)
	return p, ok
}

var prog meter

// failErr renders a typed estimation error with its class so scripts can
// tell a bad invocation from a cancel or an internal numeric failure.
func failErr(what string, err error) {
	switch {
	case errors.Is(err, leakest.ErrCanceled):
		if prog.verbose {
			fmt.Fprintln(os.Stderr)
		}
		if p, ok := prog.partial(); ok && p.Done < p.Total {
			fmt.Fprintf(os.Stderr, "leakest: interrupted during %s at %d/%d (%.1f%%, %s elapsed)\n",
				p.Stage, p.Done, p.Total, p.Percent(), p.Elapsed.Round(time.Millisecond))
		}
		fail("%s: interrupted (%v)", what, err)
	case errors.Is(err, leakest.ErrDeadlineExceeded):
		fail("%s: timed out (%v)", what, err)
	case errors.Is(err, leakest.ErrBudgetExceeded):
		fail("%s: over budget (%v)", what, err)
	case errors.Is(err, leakest.ErrInvalidInput):
		fail("%s: invalid input (%v)", what, err)
	default:
		fail("%s: %v", what, err)
	}
}

func parseHist(s string) (*leakest.Histogram, error) {
	weights := make(map[string]float64)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, ":", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad histogram entry %q (want CELL:WEIGHT)", part)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(kv[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("bad weight in %q: %v", part, err)
		}
		weights[strings.TrimSpace(kv[0])] = w
	}
	return leakest.NewHistogram(weights)
}

// parseQuantiles parses the -quantiles flag: comma-separated probabilities,
// each strictly inside (0, 1). Validation beyond syntax (range, NaN,
// duplicates) is the library's job, so bad values surface as the same typed
// InvalidInput errors the server returns.
func parseQuantiles(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var qs []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		q, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad quantile %q: %v", part, err)
		}
		qs = append(qs, q)
	}
	return qs, nil
}

// printTail renders the Monte-Carlo tail block: quantiles, the exceedance
// estimate with its provenance, and the importance-sampling diagnostics.
func printTail(out io.Writer, ts *leakest.TailStats) {
	if ts == nil {
		return
	}
	for _, qp := range ts.Quantiles {
		fmt.Fprintf(out, "  P%-7s %.4g A\n", strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.4f", 100*qp.P), "0"), "."), qp.Value)
	}
	if ts.Spec == 0 {
		return
	}
	fmt.Fprintf(out, "  P[I > %.4g A] = %.3g ± %.2g (%s", ts.Spec, ts.P, ts.SE, ts.Source)
	if ts.ISTrials > 0 {
		fmt.Fprintf(out, "; IS %d trials, shift %.2f, hit ESS %.1f", ts.ISTrials, ts.Shift, ts.HitESS)
	}
	fmt.Fprintf(out, ")\n")
	if ts.Degraded {
		fmt.Fprintf(out, "  tail degraded: %s\n", ts.DegradedReason)
	}
}

func main() {
	// Subcommands come before the flag-driven estimation modes; `leakest
	// verify` runs the conformance harness.
	if len(os.Args) > 1 && os.Args[1] == "verify" {
		os.Exit(runVerify(os.Args[2:], os.Stdout, os.Stderr))
	}
	libPath := flag.String("lib", "", "characterized library JSON (from cellchar); default: characterize built-in cells")
	full := flag.Bool("full", false, "with no -lib: characterize the full 62-cell library instead of the ISCAS subset")
	benchPath := flag.String("bench", "", "late mode: ISCAS85 .bench netlist to estimate")
	histFlag := flag.String("hist", "", "early mode: cell-usage histogram, e.g. \"INV_X1:3,NAND2_X1:2\"")
	n := flag.Int("n", 0, "early mode: number of cells")
	w := flag.Float64("w", 0, "early mode: layout width in µm")
	h := flag.Float64("h", 0, "early mode: layout height in µm")
	p := flag.Float64("p", -1, "signal probability; -1 = use the leakage-maximizing setting")
	methodFlag := flag.String("method", "auto", "estimator: auto|linear|integral|polar|naive")
	truth := flag.Bool("truth", false, "late mode: also compute the O(n²) true leakage for comparison")
	mc := flag.Int("mc", 0, "late mode: also run a full-chip Monte Carlo with this many samples")
	samplerFlag := flag.String("sampler", "auto", "Monte-Carlo field sampler: auto|dense|fft|qmc")
	tiles := flag.Int("tiles", 0, "partition the die T×T and estimate per-tile with exact inter-tile combination (linear/auto/integral methods); 0 or 1 = monolithic")
	streamPath := flag.String("stream", "", "streaming mode: one-pass estimate of a leakest-stream v1 file (die size and tiling come from its header)")
	spec := flag.Float64("spec", 0, "with -mc: leakage spec in A; report P[I_leak > spec] (yield at spec)")
	quantilesFlag := flag.String("quantiles", "", "with -mc: comma-separated tail probabilities, e.g. \"0.5,0.95,0.999\"")
	tailTrials := flag.Int("tail-trials", 0, "with -spec: importance-sampled deep-tail trial budget; 0 = plain MC only")
	vt := flag.Bool("vt", true, "apply the random-Vt mean correction")
	seed := flag.Int64("seed", 1, "random seed (placement of -bench netlists)")
	workers := flag.Int("workers", 0, "goroutines for the long loops; 0 = all cores, 1 = serial (results identical)")
	reportPath := flag.String("report", "", "write a markdown sign-off report to this path")
	timeout := flag.Duration("timeout", 0, "overall wall-clock budget (e.g. 30s); 0 = none")
	maxGates := flag.Int("max-gates", 0, "budget: degrade to cheaper estimators beyond this many gates; 0 = no limit")
	maxPairs := flag.Int64("max-pairs", 0, "budget: skip the O(n²) truth beyond this many gate pairs; 0 = no limit")
	listen := flag.String("listen", "", "serve /metrics, /debug/vars and /debug/pprof/ on this address during the run")
	verbose := flag.Bool("v", false, "verbose: structured pipeline log and a live progress meter on stderr")
	jsonReport := flag.String("json-report", "", "write a JSON run report (result, stage timings, metrics) to this path; \"-\" = stdout (the result lines then go to stderr)")
	tracePath := flag.String("trace", "", "write the run's span tree as Chrome trace-event JSON (open in chrome://tracing) to this path")
	flag.Parse()

	// Flag-only mistakes are refused before the cell library is loaded or
	// characterized, so a bad invocation fails at once. A stream never
	// fully materializes, so the in-memory-only extras (-truth, -mc,
	// -report) are refused with it.
	if *streamPath != "" {
		if *benchPath != "" || *histFlag != "" {
			fail("-stream is its own input mode; drop -bench/-hist")
		}
		if *truth || *mc > 0 || *reportPath != "" {
			fail("-truth, -mc and -report need an in-memory netlist; not available with -stream")
		}
	} else if *benchPath == "" {
		if *truth || *mc > 0 {
			fail("-truth and -mc need -bench")
		}
		if *histFlag == "" || *n == 0 || *w == 0 || *h == 0 {
			fail("early mode needs -hist, -n, -w and -h (or use -bench FILE); see -help")
		}
	}
	if (*spec != 0 || *quantilesFlag != "" || *tailTrials != 0) && *mc == 0 {
		fail("-spec, -quantiles and -tail-trials need a Monte-Carlo run; add -mc N")
	}
	method, err := leakest.ParseMethod(*methodFlag)
	if err != nil {
		fail("%v", err)
	}
	sampler, err := leakest.ParseSampler(*samplerFlag)
	if err != nil {
		fail("%v", err)
	}
	quantiles, err := parseQuantiles(*quantilesFlag)
	if err != nil {
		fail("%v", err)
	}
	var hist *leakest.Histogram
	if *streamPath == "" && *benchPath == "" {
		if hist, err = parseHist(*histFlag); err != nil {
			fail("%v", err)
		}
	}
	// With the JSON report on stdout, the human-readable lines go to stderr
	// so stdout stays one parseable document.
	var textOut io.Writer = os.Stdout
	if *jsonReport == "-" {
		textOut = os.Stderr
	}

	// Ctrl-C cancels the run cleanly; -timeout bounds it. Both surface as
	// typed Canceled / DeadlineExceeded errors from the library. The meter
	// keeps the last progress report so an interrupted run prints how far
	// it got before dying.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	prog.verbose = *verbose
	ctx = leakest.WithProgress(ctx, prog.report)
	var runTrace *leakest.Trace
	if *tracePath != "" {
		runTrace = leakest.NewTrace()
		ctx = leakest.WithTrace(ctx, runTrace)
	}
	if *verbose {
		leakest.SetLogger(slog.New(slog.NewTextHandler(os.Stderr,
			&slog.HandlerOptions{Level: slog.LevelDebug})))
	}
	if *jsonReport != "" {
		leakest.EnableMetrics()
	}
	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fail("telemetry server: %v", err)
		}
		ts := startTelemetryServer(ctx, ln, leakest.TelemetryHandler(), func(err error) {
			fmt.Fprintf(os.Stderr, "leakest: telemetry server: %v\n", err)
		})
		// On any return path, cancel the run context (Ctrl-C already has)
		// and wait for the graceful http.Server.Shutdown to finish.
		defer func() {
			stop()
			ts.Wait(3 * time.Second)
		}()
		fmt.Fprintf(os.Stderr, "serving /metrics, /debug/vars and /debug/pprof/ on %s\n", ln.Addr())
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var lib *leakest.Library
	switch {
	case *libPath != "":
		lib, err = leakest.LoadLibrary(*libPath)
		if err != nil {
			fail("loading library: %v", err)
		}
	case *full:
		fmt.Fprintln(os.Stderr, "characterizing the full 62-cell library (~10 s)...")
		lib, err = leakest.DefaultLibrary()
		if err != nil {
			fail("characterizing: %v", err)
		}
	default:
		fmt.Fprintln(os.Stderr, "characterizing the built-in ISCAS cell subset...")
		lib, err = leakest.CharacterizeContext(ctx, cells.ISCASSubset(), leakest.CharConfig{
			Process: leakest.DefaultProcess(), Seed: 20070604, Workers: *workers,
		})
		if err != nil {
			failErr("characterizing", err)
		}
	}

	est, err := leakest.NewEstimator(lib, nil)
	if err != nil {
		fail("%v", err)
	}
	est.ApplyVtMean = *vt
	est.Workers = *workers
	est.Sampler = sampler
	est.Tiles = *tiles
	est.Budget = leakest.EstimateBudget{MaxGates: *maxGates, MaxPairs: *maxPairs}
	est.Spec = *spec
	est.TailTrials = *tailTrials
	est.Quantiles = quantiles

	// Streaming mode: the design is extracted and estimated in one pass.
	if *streamPath != "" {
		sp := *p
		if sp < 0 {
			sp = 0.5
			fmt.Fprintln(os.Stderr, "note: streaming mode defaults the signal probability to 0.5 (pass -p to override)")
		}
		f, err := os.Open(*streamPath)
		if err != nil {
			fail("%v", err)
		}
		br := bufio.NewReaderSize(f, streamPeek)
		hdr := peekStreamHeader(br)
		res, err := est.EstimateStream(ctx, br, sp)
		f.Close()
		if err != nil {
			failErr("streaming estimate", err)
		}
		// The design comes from the stream's header, so a degraded result
		// without tile statistics reports it too.
		design := leakest.Design{
			N:          hdr.Gates,
			W:          float64(hdr.Cols) * hdr.SiteW,
			H:          float64(hdr.Rows) * hdr.SiteH,
			SignalProb: sp,
		}
		fmt.Fprintf(textOut, "stream mode: %d gates\n", design.N)
		printResult(textOut, res)
		if *jsonReport != "" {
			writeJSONReport(*jsonReport, design, res, nil, nil)
		}
		if runTrace != nil {
			writeTraceFile(*tracePath, runTrace)
		}
		return
	}

	var design leakest.Design
	var nl *leakest.Netlist
	var pl *leakest.Placement
	if *benchPath != "" {
		nl, err = leakest.ReadBenchFile(*benchPath)
		if err != nil {
			fail("reading %s: %v", *benchPath, err)
		}
		pl, err = leakest.AutoPlace(nl, *seed)
		if err != nil {
			fail("placing: %v", err)
		}
		design, err = est.ExtractDesign(nl, pl, 0.5)
		if err != nil {
			fail("extracting characteristics: %v", err)
		}
		fmt.Fprintf(textOut, "late mode: %s — %d gates, %d cell types, die %.1f×%.1f µm\n",
			nl.Name, design.N, design.Hist.Len(), design.W, design.H)
	} else {
		design = leakest.Design{Hist: hist, N: *n, W: *w, H: *h}
		fmt.Fprintf(textOut, "early mode: %d gates, %d cell types, die %.1f×%.1f µm\n",
			design.N, design.Hist.Len(), design.W, design.H)
	}

	if *p < 0 {
		pStar, err := est.MaxLeakageSignalProb(design.Hist)
		if err != nil {
			fail("maximizing signal probability: %v", err)
		}
		design.SignalProb = pStar
		fmt.Fprintf(textOut, "signal probability: %.3f (leakage-maximizing, conservative)\n", pStar)
	} else {
		design.SignalProb = *p
		fmt.Fprintf(textOut, "signal probability: %.3f\n", *p)
	}

	res, err := est.EstimateContext(ctx, design, method)
	if err != nil {
		failErr("estimating", err)
	}
	printResult(textOut, res)

	var truthRes *leakest.Result
	if *truth {
		tr, err := est.TrueLeakageContext(ctx, nl, pl, design.SignalProb)
		if err != nil {
			failErr("true leakage", err)
		}
		if tr.Degraded {
			fmt.Fprintf(textOut, "\ntruth degraded to %s: %s\n", tr.Method, tr.DegradeReason)
		}
		fmt.Fprintf(textOut, "\ntrue O(n²):   mean %.4g A, std %.4g A\n", tr.Mean, tr.Std)
		fmt.Fprintf(textOut, "estimate err: mean %+.2f%%, std %+.2f%%\n",
			100*(res.Mean-tr.Mean)/tr.Mean, 100*(res.Std-tr.Std)/tr.Std)
		truthRes = &tr
	}
	if *reportPath != "" {
		f, err := os.Create(*reportPath)
		if err != nil {
			fail("creating report: %v", err)
		}
		title := "Full-chip leakage sign-off"
		if nl != nil {
			title = "Leakage sign-off: " + nl.Name
		}
		if err := est.Report(f, title, design); err != nil {
			fail("writing report: %v", err)
		}
		if err := f.Close(); err != nil {
			fail("closing report: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *reportPath)
	}
	var mcRes *leakest.MonteCarloResult
	if *mc > 0 {
		if est.ApplyVtMean {
			fmt.Fprintln(os.Stderr, "note: Monte Carlo below excludes the Vt mean factor")
		}
		r, err := est.MonteCarloContext(ctx, nl, pl, design.SignalProb, *mc, *seed)
		if err != nil {
			failErr("monte carlo", err)
		}
		fmt.Fprintf(textOut, "\nchip MC (%d): mean %.4g A, std %.4g A, 5th–95th pct [%.4g, %.4g] A\n",
			r.Samples, r.Mean, r.Std, r.Q05, r.Q95)
		printTail(textOut, r.Tail)
		mcRes = &r
	}
	if *jsonReport != "" {
		writeJSONReport(*jsonReport, design, res, truthRes, mcRes)
	}
	if runTrace != nil {
		writeTraceFile(*tracePath, runTrace)
	}
}

// printResult renders an estimate: the method that served, its tiles and
// degradation when there are any, and the moments.
func printResult(out io.Writer, res leakest.Result) {
	fmt.Fprintf(out, "\nmethod: %s", res.Method)
	if res.Note != "" {
		fmt.Fprintf(out, " (%s)", res.Note)
	}
	if len(res.TileStats) > 0 {
		fmt.Fprintf(out, "\ntiles: %d (exact inter-tile combination)", len(res.TileStats))
	}
	if res.Degraded {
		fmt.Fprintf(out, "\ndegraded: %s", res.DegradeReason)
	}
	fmt.Fprintf(out, "\nmean leakage: %.4g A\nstd  leakage: %.4g A  (%.2f%% of mean)\n",
		res.Mean, res.Std, 100*res.Std/res.Mean)
	fmt.Fprintf(out, "mean + 3σ:    %.4g A\n", res.Mean+3*res.Std)
}

// writeTraceFile renders the run's span tree as Chrome trace-event JSON.
// Called at the end of main (not deferred): fail() exits the process, and a
// half-written trace from a failed run would not be loadable anyway.
func writeTraceFile(path string, tr *leakest.Trace) {
	tr.SetOutcome("ok")
	f, err := os.Create(path)
	if err != nil {
		fail("trace file: %v", err)
	}
	if err := leakest.WriteChromeTrace(f, tr.Snapshot()); err != nil {
		f.Close()
		fail("trace file: %v", err)
	}
	if err := f.Close(); err != nil {
		fail("trace file: %v", err)
	}
	fmt.Fprintf(os.Stderr, "wrote trace (%s) to %s\n", tr.ID(), path)
}

// runReport is the machine-readable summary written by -json-report: the
// design, the estimate (with its per-stage timing breakdown), the optional
// O(n²) truth and Monte-Carlo results, and a snapshot of every metric the
// run collected.
type runReport struct {
	Design struct {
		N          int     `json:"n"`
		W          float64 `json:"w_um"`
		H          float64 `json:"h_um"`
		SignalProb float64 `json:"signal_prob"`
	} `json:"design"`
	Result     leakest.Result            `json:"result"`
	Truth      *leakest.Result           `json:"truth,omitempty"`
	MonteCarlo *leakest.MonteCarloResult `json:"monte_carlo,omitempty"`
	Metrics    map[string]any            `json:"metrics"`
}

// streamPeek is how much of a stream the CLI reads ahead for its header.
const streamPeek = 64 << 10

// peekStreamHeader parses a leakest-stream's magic and design lines from
// the front of br without consuming them, so the estimate still reads the
// stream in one pass and a pipe works as well as a file. A header it cannot
// parse within the buffer yields the zero header; EstimateStream then
// reports a malformed stream itself.
func peekStreamHeader(br *bufio.Reader) leakest.StreamHeader {
	// Peek errs when the stream is shorter than the buffer; what it
	// returns is still the whole stream.
	head, _ := br.Peek(br.Size())
	hdr, _ := netlist.ScanPlaced(bytes.NewReader(head), netlist.StreamVisitor{
		// Stop the scan once the design line is parsed.
		Design: func(netlist.StreamHeader) error { return io.EOF },
	})
	return hdr
}

func writeJSONReport(path string, design leakest.Design, res leakest.Result, truth *leakest.Result, mc *leakest.MonteCarloResult) {
	var rep runReport
	rep.Design.N = design.N
	rep.Design.W = design.W
	rep.Design.H = design.H
	rep.Design.SignalProb = design.SignalProb
	rep.Result = res
	rep.Truth = truth
	rep.MonteCarlo = mc
	rep.Metrics = leakest.MetricsSnapshot()
	out, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fail("encoding json report: %v", err)
	}
	out = append(out, '\n')
	if path == "-" {
		os.Stdout.Write(out)
		return
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		fail("writing json report: %v", err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}
