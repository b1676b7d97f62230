// Command perfbench is leakest's end-to-end benchmark. It runs one named
// closed-loop workload against the public leakest API (or, for "service",
// the leakestd HTTP handler), checks every op's output, and prints the
// end-to-end metrics; with --trace 1 it replays the same op sequence
// through the internal packages' entry points instead and prints the
// per-layer metrics. Run it from the repository root:
//
//	bash perfbench/run.sh --workload estimate --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See perfbench/README.md for the
// workloads, the metrics and the layer → end-to-end map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"leakest/internal/telemetry"
)

// processStart anchors the first setup round at process start.
var processStart = time.Now()

const (
	// setupRounds is how many times a run sets up; setup_s is the median.
	setupRounds = 5
	// countWindow is the number of leading ops whose work counts are
	// reported: a fixed prefix of the seed's op sequence, so the count
	// metrics repeat exactly whatever the run length.
	countWindow = 16
	// refProcs is the processor count of the reference computations that
	// the checks run after the timed phase.
	refProcs = 2
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opOut is one op of the timed phase.
type opOut struct {
	i       int
	at      time.Duration // start, relative to the timed phase's start
	latency time.Duration
	// scale brings latency to reference speed (calib.go).
	scale float64
	err   error
	out   any
	// trace is the op's span tree in the traced run, nil otherwise.
	trace *telemetry.TraceSnapshot
}

// workload is one named op sequence.
type workload interface {
	// setup characterizes the library and builds the inputs. It runs
	// setupRounds times; each round replaces the previous round's state.
	setup(ctx context.Context) error
	// clients is the number of closed-loop clients; the timed phase runs
	// with as many processors.
	clients() int
	// tailQ is the fixed op_tail_ms percentile (as a fraction); the
	// workload's op count leaves at least ten ops beyond it.
	tailQ() float64
	// do runs op i of the sequence. Under a traced context it opens the
	// op's root span, "op.<kind>", with the op's gate count as attribute
	// "gates", and spans of its own around the calls the program does not
	// trace.
	do(ctx context.Context, i int) (any, error)
	// check verifies the timed phase's outputs, after timing, and returns
	// whether each one is correct. p perturbs the outputs before the checks
	// (the zero perturb in a real run; the self-test scales σs).
	check(ctx context.Context, outs []opOut, p perturb) []bool
	// layerExtras returns the per-layer figures a workload measures beside
	// the spans (the server's admission fields, the σ errors).
	layerExtras(outs []opOut) map[string]float64
	close()
}

// perturb scales reported outputs before the checks, so the self-test can
// show that each check trips. factor 0 leaves every output alone.
type perturb struct {
	factor float64
	// only, if set, names the one output scaled: "truth" for the truth
	// workload's O(n²) σ, an mc sampler kind for that kind's trial
	// deviations from their mean (and so its σ).
	only string
}

// scale is the factor applied to the named output.
func (p perturb) scale(name string) float64 {
	if p.factor == 0 || (p.only != "" && p.only != name) {
		return 1
	}
	return p.factor
}

// bench holds what every workload shares.
type bench struct {
	seed    int64
	traced  bool
	dataDir string // scratch files, inside the checkout
	// setupTraces collects the setup rounds' span trees in the traced run.
	setupTraces []telemetry.TraceSnapshot
	// maxOps stops the timed phase after this many ops (0: time only);
	// the tests use it to run short, exact op counts.
	maxOps int
	// setupCount lets the tests set up once instead of setupRounds times.
	setupCount int
}

func newWorkload(name string, b *bench) (workload, error) {
	switch name {
	case "estimate":
		return &estimateWL{b: b}, nil
	case "truth":
		return &truthWL{b: b}, nil
	case "mc":
		return &mcWL{b: b}, nil
	case "service":
		return &serviceWL{b: b}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (estimate | truth | mc | service)", name)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: estimate | truth | mc | service")
		seed    = flag.Int64("seed", 1, "workload seed; the op sequence is a pure function of it")
		seconds = flag.Float64("seconds", 15, "length of the timed phase")
		traced  = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	)
	flag.Parse()
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	dataDir, err := filepath.Abs(filepath.Join(".bench_build", "perfbench-data", fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dataDir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{seed: *seed, dataDir: dataDir, traced: *traced == 1}
	rep, err := run(context.Background(), *name, b, time.Duration(*seconds*float64(time.Second)))
	os.RemoveAll(dataDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run sets up, warms up, times the op loop, checks the outputs and
// assembles the report.
func run(ctx context.Context, name string, b *bench, dur time.Duration) (*report, error) {
	w, err := newWorkload(name, b)
	if err != nil {
		return nil, err
	}
	defer w.close()
	// One processor per client: a single-client workload then runs on one
	// CPU at a time, its GC included, so its ops do not wait on or compete
	// with work scheduled on the machine's other CPU.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(w.clients(), runtime.NumCPU())))
	setupS, err := setupAll(ctx, w, b)
	if err != nil {
		return nil, err
	}

	minOps := 1
	if b.traced {
		minOps = countWindow
	}
	gcBefore := readGC()
	cal := newCalibrator(w.clients())
	heap := startHeapSampler()
	outs, elapsed := timedLoop(ctx, w, b, cal, dur, minOps)
	heap.stop()
	gc := readGC().minus(gcBefore)

	runtime.GOMAXPROCS(min(refProcs, runtime.NumCPU()))
	ok := w.check(ctx, outs, perturb{})
	failed := 0
	var lat []float64
	sumMs, speed := 0.0, 0.0
	for k, o := range outs {
		ms := o.latency.Seconds() * 1e3 * o.scale
		lat = append(lat, ms)
		sumMs += ms
		speed += 1 / o.scale / float64(len(outs))
		if o.err != nil || !ok[k] {
			failed++
			if o.err != nil {
				fmt.Fprintf(os.Stderr, "op %d: %v\n", o.i, o.err)
			}
		}
	}
	rep := &report{Attempted: len(outs), Failed: failed, Metrics: map[string]metric{}}
	rep.Correct = failed == 0 && len(outs) > 0
	// The clients' correct ops per second of op time at reference speed.
	opsPerS := float64(w.clients()*(len(outs)-failed)) / (sumMs / 1e3)
	if !b.traced {
		p50 := quantile(lat, 0.5)
		tail := quantile(lat, w.tailQ())
		beyond := int(float64(len(lat)) * (1 - w.tailQ()))
		fmt.Fprintf(os.Stderr, "%s seed=%d: %d ops in %.2fs (%.4g ops/s at the host's speed; ops ran at %.3g× reference speed), op_tail_ms = p%g of %d ops (%d beyond); %d GC cycles, %.2f GC CPU-s; %d live-heap samples, largest %.4g MB\n",
			name, b.seed, len(outs), elapsed.Seconds(), float64(len(outs)-failed)/elapsed.Seconds(), 1/speed, 100*w.tailQ(), len(lat), beyond, gc.cycles, gc.cpuS,
			len(heap.samples), heap.largest)
		if beyond < 10 {
			fmt.Fprintf(os.Stderr, "warning: fewer than ten ops beyond the tail percentile\n")
		}
		rep.Metrics["setup_s"] = metric{setupS, "s"}
		rep.Metrics["ops_per_s"] = metric{opsPerS, "1/s"}
		rep.Metrics["op_p50_ms"] = metric{p50, "ms"}
		rep.Metrics["op_tail_ms"] = metric{tail, "ms"}
		rep.Metrics["live_heap_p95_mb"] = metric{quantile(heap.samples, 0.95), "MB"}
		return rep, nil
	}
	ops := tracedOps(b.setupTraces, outs)
	if err := writeSpans(filepath.Join(filepath.Dir(b.dataDir), fmt.Sprintf("spans-%s-%d.json", name, b.seed)), ops); err != nil {
		return nil, err
	}
	extras := w.layerExtras(outs)
	extras["trace.ops_per_s"] = opsPerS
	for k, v := range perLayer(ops, extras) {
		rep.Metrics[k] = v
	}
	return rep, nil
}

// setupAll runs the setup rounds and returns the median round time at
// reference speed. Each round sets up, runs one warm-up op and collects
// garbage; the first round is timed from process start. The calibration
// kernel runs setupKernelRuns times before and after each round, outside
// its time.
func setupAll(ctx context.Context, w workload, b *bench) (float64, error) {
	rounds := setupRounds
	if b.setupCount > 0 {
		rounds = b.setupCount
	}
	var times []float64
	for r := 0; r < rounds; r++ {
		k0 := time.Now()
		before := calibKernels()
		start := time.Now()
		if r == 0 {
			start = processStart.Add(start.Sub(k0))
		}
		sctx, tr := ctx, (*telemetry.Trace)(nil)
		if b.traced {
			tr = telemetry.NewTrace()
			sctx = telemetry.WithTrace(ctx, tr)
		}
		if err := w.setup(sctx); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		if tr != nil {
			b.setupTraces = append(b.setupTraces, tr.Snapshot())
		}
		if _, err := w.do(ctx, 0); err != nil {
			return 0, fmt.Errorf("warm-up op: %w", err)
		}
		runtime.GC()
		s := time.Since(start).Seconds()
		times = append(times, s*calibRefMs/((before+calibKernels())/2))
	}
	return median(times), nil
}

// timedLoop runs the closed loop: each client takes the next op of the
// sequence as soon as its previous one returns, until the deadline (and at
// least minOps ops). The calibration kernel runs between ops, with every
// client paused; each op's scale comes from the runs around it.
func timedLoop(ctx context.Context, w workload, b *bench, cal *calibrator, dur time.Duration, minOps int) ([]opOut, time.Duration) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		outs []opOut
		wg   sync.WaitGroup
	)
	start := cal.start
	var lastEnd time.Duration
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if b.maxOps > 0 && i >= b.maxOps {
					return
				}
				if b.maxOps == 0 && i >= minOps && time.Since(start) >= dur {
					return
				}
				octx, tr := ctx, (*telemetry.Trace)(nil)
				if b.traced {
					tr = telemetry.NewTrace()
					octx = telemetry.WithTrace(ctx, tr)
				}
				cal.beforeOp()
				cal.mu.RLock()
				t := time.Now()
				out, err := w.do(octx, i)
				end := time.Now()
				cal.mu.RUnlock()
				o := opOut{i: i, at: t.Sub(start), latency: end.Sub(t), err: err, out: out}
				if tr != nil {
					snap := tr.Snapshot()
					o.trace = &snap
				}
				mu.Lock()
				outs = append(outs, o)
				lastEnd = max(lastEnd, end.Sub(start))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	cal.finish()
	for k := range outs {
		from := outs[k].at
		outs[k].scale = cal.scale(from, from+outs[k].latency)
	}
	sort.Slice(outs, func(a, c int) bool { return outs[a].i < outs[c].i })
	return outs, lastEnd
}

// heapSampler reads the live heap as of the last GC cycle
// (/gc/heap/live:bytes) every heapEvery of the timed phase, so each cycle's
// reading counts for as long as it stood. live_heap_p95_mb is the 95th
// percentile of the samples. The largest reading is not reported: it is
// set by short transients (a large op's placement or grid arrays) that a
// cycle catches only now and then, so it moved by up to a quarter from run
// to run. The mean is not reported either: estimate runs only ~15 GC
// cycles in a run, and the time-weighted mean of their readings spread by
// 0.13, while the 95th percentile, the level the heap returns to cycle
// after cycle, repeats.
type heapSampler struct {
	done    chan struct{}
	wg      sync.WaitGroup
	samples []float64 // MB
	largest float64   // MB
}

// heapEvery is the sampling interval.
const heapEvery = 10 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(heapEvery)
		defer tick.Stop()
		for {
			select {
			case <-h.done:
				return
			case <-tick.C:
				metrics.Read(live)
				if live[0].Value.Kind() == metrics.KindUint64 {
					mb := float64(live[0].Value.Uint64()) / (1 << 20)
					h.samples = append(h.samples, mb)
					h.largest = max(h.largest, mb)
				}
			}
		}
	}()
	return h
}

// stop ends the sampling and waits for the sampler to return.
func (h *heapSampler) stop() {
	close(h.done)
	h.wg.Wait()
}

// gcStats are the runtime's cumulative GC counts.
type gcStats struct {
	cycles uint64
	cpuS   float64
}

func readGC() gcStats {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return gcStats{cycles: s[0].Value.Uint64(), cpuS: s[1].Value.Float64()}
}

func (a gcStats) minus(b gcStats) gcStats { return gcStats{a.cycles - b.cycles, a.cpuS - b.cpuS} }

// quantile is the linearly interpolated q-quantile of xs (xs is reordered).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// relDiff is |a−b|/|b|.
func relDiff(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}
