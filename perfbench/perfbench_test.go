package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

var workloads = []string{"estimate", "truth", "mc", "service"}

// plans returns each workload's seed-derived op sequence.
func plans(t *testing.T, seed int64) map[string]any {
	t.Helper()
	designs, streams, estOps, err := estimatePlan(seed)
	if err != nil {
		t.Fatal(err)
	}
	ckts, order := truthPlan(seed)
	mcCkts, mcOps := mcPlan(seed)
	benches, reqs, err := servicePlan(seed)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]any{
		"estimate": []any{designs, streams, estOps},
		"truth":    []any{ckts, order},
		"mc":       []any{mcCkts, mcOps},
		"service":  []any{benches, reqs},
	}
}

func TestOpSequenceIsAFunctionOfTheSeed(t *testing.T) {
	a, again, other := plans(t, 1), plans(t, 1), plans(t, 2)
	for _, name := range workloads {
		if !reflect.DeepEqual(a[name], again[name]) {
			t.Errorf("%s: seed 1 gave two different op sequences", name)
		}
		if reflect.DeepEqual(a[name], other[name]) {
			t.Errorf("%s: seeds 1 and 2 gave the same op sequence", name)
		}
	}
}

func TestBalancedOrderCoversStrata(t *testing.T) {
	ops := make([]int, 16)
	for j := range ops {
		ops[j] = j
	}
	order := balance(newRNG(1, "t"), ops)
	// Any half of the cycle, taken cyclically from any start, holds one
	// op from each pair of neighbouring strata.
	for start := 0; start < 16; start++ {
		seen := map[int]bool{}
		for k := 0; k < 8; k++ {
			seen[order[(start+k)%16]/2] = true
		}
		if len(seen) != 8 {
			t.Fatalf("order %v: the half from %d misses a stratum pair", order, start)
		}
	}
}

// newTestBench returns a bench that sets up once and runs ops exact ops.
func newTestBench(t *testing.T, ops int, traced bool) *bench {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "data")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	return &bench{seed: 1, dataDir: dir, maxOps: ops, setupCount: 1, traced: traced}
}

func TestCountMetricsRepeatExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's traced run twice")
	}
	counts := []string{"core.truth_pairs", "core.linear_lags", "randvar.torus_sites",
		"chipmc.trials", "linalg.cholesky_flops", "charlib.states"}
	nonzero := map[string]bool{}
	for _, name := range workloads {
		var first map[string]metric
		for rep := 0; rep < 2; rep++ {
			r, err := run(context.Background(), name, newTestBench(t, countWindow, true), 0)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !r.Correct {
				t.Fatalf("%s: traced run reported %d failed ops", name, r.Failed)
			}
			for _, ls := range layerSpecs {
				if _, ok := r.Metrics[ls.name]; !ok {
					t.Errorf("%s: per-layer metric %s missing", name, ls.name)
				}
			}
			if rep == 0 {
				first = r.Metrics
				continue
			}
			for _, c := range counts {
				if r.Metrics[c] != first[c] {
					t.Errorf("%s: %s = %v, then %v", name, c, first[c].Value, r.Metrics[c].Value)
				}
				if r.Metrics[c].Value > 0 {
					nonzero[c] = true
				}
			}
		}
	}
	for _, c := range counts {
		if !nonzero[c] {
			t.Errorf("%s is zero on every workload", c)
		}
	}
}

// opsRun runs a workload's first ops ops, untraced, and requires every op
// to pass its check unperturbed.
func opsRun(t *testing.T, name string, ops int) (workload, []opOut) {
	t.Helper()
	ctx := context.Background()
	b := newTestBench(t, ops, false)
	w, err := newWorkload(name, b)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.close)
	if _, err := setupAll(ctx, w, b); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	outs, _ := timedLoop(ctx, w, b, newCalibrator(w.clients()), 0, 1)
	for _, o := range outs {
		if o.err != nil {
			t.Fatalf("%s op %d: %v", name, o.i, o.err)
		}
	}
	for k, ok := range w.check(ctx, outs, perturb{}) {
		if !ok {
			t.Errorf("%s: op %d fails its check unperturbed", name, outs[k].i)
		}
	}
	return w, outs
}

// requireTrips requires every op (of kind, if set) to fail the check
// under p.
func requireTrips(t *testing.T, name string, w workload, outs []opOut, p perturb, kindOf func(opOut) string) {
	t.Helper()
	tripped := 0
	for k, ok := range w.check(context.Background(), outs, p) {
		if kindOf != nil && kindOf(outs[k]) != p.only {
			continue
		}
		if ok {
			t.Errorf("%s: op %d passes its check under %+v", name, outs[k].i, p)
		}
		tripped++
	}
	if tripped == 0 {
		t.Errorf("%s: no op to perturb with %+v", name, p)
	}
}

func TestOnePercentSigmaPerturbationTripsEveryCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloads {
		w, outs := opsRun(t, name, 12)
		requireTrips(t, name, w, outs, perturb{factor: 1.01}, nil)
	}
}

func TestTruthSigmaAlonePerturbationTripsTheExactCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the truth workload")
	}
	w, outs := opsRun(t, "truth", 12)
	requireTrips(t, "truth", w, outs, perturb{factor: 1.01, only: "truth"}, nil)
}

// TestMCPooledCheckCatchesScaledDeviations scales one sampler kind's trial
// deviations by 1.1 — moments and trial stream stay consistent, so only
// the pooled comparison with the exact reference can catch it — over one
// cycle of ops.
func TestMCPooledCheckCatchesScaledDeviations(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a cycle of the mc workload")
	}
	_, cycle := mcPlan(1)
	w, outs := opsRun(t, "mc", len(cycle))
	kindOf := func(o opOut) string { return mcKinds[o.out.(mcOut).op.kind].name }
	requireTrips(t, "mc", w, outs, perturb{factor: 1.1, only: "dense"}, kindOf)
}

// TestCalibratorScalesByTheKernelRunsAroundTheOp: an op is scaled by the
// mean of the last kernel run before it and the first after it.
func TestCalibratorScalesByTheKernelRunsAroundTheOp(t *testing.T) {
	ms := time.Millisecond
	c := &calibrator{runs: []kernelRun{{end: 10 * ms, ms: 2}, {end: 50 * ms, ms: 4}, {end: 90 * ms, ms: 8}}}
	for _, tc := range []struct {
		from, to time.Duration
		want     float64
	}{
		{12 * ms, 48 * ms, calibRefMs / 3}, // between the first two runs
		{52 * ms, 60 * ms, calibRefMs / 6}, // between the last two
		{0, 5 * ms, calibRefMs / 2},        // before the first: that run alone
		{95 * ms, 99 * ms, calibRefMs / 8}, // after the last: that run alone
	} {
		if got := c.scale(tc.from, tc.to); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("scale(%v, %v) = %g, want %g", tc.from, tc.to, got, tc.want)
		}
	}
}
