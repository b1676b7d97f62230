package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// The host speed correction. On a shared host the speed at which one CPU
// runs a fixed piece of code changes by up to 2x from one second to the
// next, with the load other tenants put on the same physical core; run to
// run, an op's wall time then measures the host more than the program. So
// the benchmark runs a fixed calibration kernel — no leakest code —
// between ops, with every client paused, and reports each op's time scaled
// to the speed at which the kernel takes calibRefMs:
//
//	reported = measured × calibRefMs / kernel time around the op
//
// where the kernel time around the op is the mean of the last kernel run
// before the op started and the first after it ended. The kernel mixes a
// dependent floating-point chain, independent chains, a stream over an
// L2-sized buffer and exp/log calls; its time tracks the ops' times
// closely (correlation about 0.9 over neighbouring runs of the same op),
// so the ratio moves far less than either. A change to the program moves
// the ops' times and leaves the kernel alone.

const (
	// calibRefMs is the kernel's time at reference speed: reported times
	// are as the program would run on a host where the kernel takes this
	// long.
	calibRefMs = 3.0
	// calibEvery is the time after which the next op of a single client
	// waits for a kernel run. A run pauses every client, so with c clients
	// some wait for the others' ops to end; runs are then spaced
	// calibEvery × c², so that this costs little of their concurrency.
	calibEvery = 25 * time.Millisecond
	// setupKernelRuns is the number of kernel runs averaged on each side of
	// a setup round, which, unlike the timed ops, runs as one piece.
	setupKernelRuns = 3
)

// calibBufs are the kernel's L2-sized buffers (256 KiB), one per client
// (no workload has more than service's), globals so that they are not on
// the heap the benchmark measures.
var (
	calibBufs [svcClients][1 << 15]float64
	calibSink float64
)

// calibKernel runs the kernel once on buffer k and returns its time in ms
// and a value that keeps the work from being optimized away.
func calibKernel(k int) (ms, sink float64) {
	start := time.Now()
	buf := &calibBufs[k]
	x := 1.0
	for i := 0; i < 200_000; i++ {
		x = x*1.0000001 + 0.5
	}
	var a [8]float64
	for j := range a {
		a[j] = float64(j)
	}
	for i := 0; i < 60_000; i++ {
		for j := range a {
			a[j] = a[j]*0.9999999 + 1e-3
		}
	}
	s := 0.0
	for r := 0; r < 15; r++ {
		for i := range buf {
			buf[i] = buf[i]*0.999 + 0.5
			s += buf[i]
		}
	}
	for i := 0; i < 30_000; i++ {
		s += math.Exp(float64(i&1023)*1e-4) * math.Log1p(float64(i))
	}
	for _, v := range a {
		s += v
	}
	return time.Since(start).Seconds() * 1e3, x + s
}

// calibKernels is the mean time of setupKernelRuns kernel runs, in ms.
func calibKernels() float64 {
	sum := 0.0
	for r := 0; r < setupKernelRuns; r++ {
		ms, sink := calibKernel(0)
		sum += ms
		calibSink += sink
	}
	return sum / setupKernelRuns
}

// kernelRun is one kernel run: when it ended, relative to the timed
// phase's start, and how long it took.
type kernelRun struct {
	end time.Duration
	ms  float64
}

// calibrator interleaves kernel runs with the ops of a timed phase. Ops
// run under the read lock; a kernel run takes the write lock, so it waits
// for the ops in flight and runs with every client paused. A kernel run
// runs the kernel once per client, in parallel, so it loads the machine's
// processors as the clients' ops do.
type calibrator struct {
	mu      sync.RWMutex
	start   time.Time
	clients int
	every   time.Duration
	runs    []kernelRun // in time order; appended under the write lock
	last    time.Time
}

// newCalibrator starts a timed phase of the given number of clients: its
// first kernel run marks the phase's start.
func newCalibrator(clients int) *calibrator {
	c := &calibrator{start: time.Now(), clients: clients, every: calibEvery * time.Duration(clients*clients)}
	c.run()
	return c
}

// run times one kernel run, the mean of the clients' kernel times; c.mu is
// held for writing (or not shared yet).
func (c *calibrator) run() {
	ms, sinks := make([]float64, c.clients), make([]float64, c.clients)
	var wg sync.WaitGroup
	for k := range ms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ms[k], sinks[k] = calibKernel(k)
		}()
	}
	wg.Wait()
	for _, s := range sinks {
		calibSink += s
	}
	c.last = time.Now()
	c.runs = append(c.runs, kernelRun{end: c.last.Sub(c.start), ms: mean(ms)})
}

// beforeOp runs the kernel if c.every has passed since its last run.
// Only then does it take the write lock, which waits for the ops in
// flight.
func (c *calibrator) beforeOp() {
	c.mu.RLock()
	due := time.Since(c.last) >= c.every
	c.mu.RUnlock()
	if !due {
		return
	}
	c.mu.Lock()
	if time.Since(c.last) >= c.every {
		c.run()
	}
	c.mu.Unlock()
}

// finish runs the kernel a last time, after the phase's last op.
func (c *calibrator) finish() {
	c.mu.Lock()
	c.run()
	c.mu.Unlock()
}

// scale is the factor that brings a time measured between from and to
// (relative to the phase's start) to reference speed.
func (c *calibrator) scale(from, to time.Duration) float64 {
	// The first run ending after the op; the last one before it ended
	// before the op started, since kernel and ops exclude each other.
	k := sort.Search(len(c.runs), func(k int) bool { return c.runs[k].end >= to })
	after := c.runs[min(k, len(c.runs)-1)].ms
	before := after
	if j := sort.Search(len(c.runs), func(j int) bool { return c.runs[j].end > from }) - 1; j >= 0 {
		before = c.runs[j].ms
	}
	return calibRefMs / ((before + after) / 2)
}
