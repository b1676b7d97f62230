package leakest

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"leakest/internal/chipmc"
	"leakest/internal/fault"
)

// TestBudgetRungBoundaries pins the static admission rules at their exact
// boundaries: a budget equal to the cost is allowed (strict > comparisons),
// one unit less degrades with the matching reason class.
func TestBudgetRungBoundaries(t *testing.T) {
	const n = 100
	exactPairs := pairs(n) // 4950
	cases := []struct {
		name     string
		budget   EstimateBudget
		truthOK  bool
		linearOK bool
		kind     string
	}{
		{"no-limits", EstimateBudget{}, true, true, ""},
		{"pairs-exact", EstimateBudget{MaxPairs: exactPairs}, true, true, ""},
		{"pairs-one-under", EstimateBudget{MaxPairs: exactPairs - 1}, false, true, reasonMaxPairs},
		{"gates-exact", EstimateBudget{MaxGates: n}, true, true, ""},
		{"gates-one-under", EstimateBudget{MaxGates: n - 1}, false, false, reasonMaxGates},
		// MaxPairs only bounds the O(n²) rung; the linear method is immune.
		{"pairs-tiny", EstimateBudget{MaxPairs: 1}, false, true, reasonMaxPairs},
		// Both limits set: the pair limit trips first for the truth rung.
		{"both-under", EstimateBudget{MaxPairs: 1, MaxGates: n - 1}, false, false, reasonMaxPairs},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ok, kind, why := c.budget.allowsTruth(n)
			if ok != c.truthOK {
				t.Errorf("allowsTruth = %v, want %v (%s)", ok, c.truthOK, why)
			}
			if !ok && kind != c.kind {
				t.Errorf("truth degradation kind = %q, want %q", kind, c.kind)
			}
			if ok && why != "" {
				t.Errorf("allowed rung carries a reason: %q", why)
			}
			lok, lkind, _ := c.budget.allowsLinear(n)
			if lok != c.linearOK {
				t.Errorf("allowsLinear = %v, want %v", lok, c.linearOK)
			}
			if !lok && lkind != reasonMaxGates {
				t.Errorf("linear degradation kind = %q, want %q", lkind, reasonMaxGates)
			}
		})
	}
}

// budgeted returns a copy of est that carries budget b.
func budgeted(est *Estimator, b EstimateBudget) *Estimator {
	c := *est
	c.Budget = b
	return &c
}

// monteCarloCapped runs the chip Monte Carlo of est with an explicit gate
// cap — the chipmc.Config.MaxGates bound, which the Estimator leaves at the
// sampler's default.
func monteCarloCapped(est *Estimator, nl *Netlist, pl *Placement, samples, maxGates int) (MonteCarloResult, error) {
	return chipmc.RunContext(context.Background(), chipmc.Config{
		Lib: est.Library(), Proc: est.Process(), SignalProb: 0.5,
		Samples: samples, Seed: 1, MaxGates: maxGates,
	}, nl, pl)
}

// metricDelta samples an int64 metric before/after fn and returns the
// increment.
func metricDelta(key string, fn func()) int64 {
	EnableMetrics()
	before, _ := MetricsSnapshot()[key].(int64)
	fn()
	after, _ := MetricsSnapshot()[key].(int64)
	return after - before
}

// TestTrueLeakageBudgetedGateBoundary runs the full ladder at the exact
// MaxGates boundary: equal to n the O(n²) truth runs undegraded; one less
// rules out both gate-bounded rungs and falls through to the O(1) integral,
// incrementing degradations_total{reason="max-gates"} once per skipped rung.
func TestTrueLeakageBudgetedGateBoundary(t *testing.T) {
	const n = 16
	est, nl, pl := robustCircuit(t, n)

	res, err := budgeted(est, EstimateBudget{MaxGates: n}).TrueLeakageContext(context.Background(), nl, pl, 0.5)
	if err != nil {
		t.Fatalf("MaxGates=n: %v", err)
	}
	if res.Degraded || res.Method != "true-n2" {
		t.Fatalf("MaxGates=n must run the O(n²) rung undegraded; got method %q, degraded %v (%s)",
			res.Method, res.Degraded, res.DegradeReason)
	}

	var res2 Result
	delta := metricDelta(`degradations_total{reason="max-gates"}`, func() {
		res2, err = budgeted(est, EstimateBudget{MaxGates: n - 1}).TrueLeakageContext(context.Background(), nl, pl, 0.5)
	})
	if err != nil {
		t.Fatalf("MaxGates=n-1: %v", err)
	}
	if !res2.Degraded {
		t.Fatal("MaxGates=n-1 must degrade")
	}
	if res2.Method != "polar-1d" && res2.Method != "integral-2d" {
		t.Errorf("degraded method = %q, want a constant-time integral", res2.Method)
	}
	if !strings.Contains(res2.DegradeReason, "o(n²) skipped") || !strings.Contains(res2.DegradeReason, "o(n) skipped") {
		t.Errorf("DegradeReason must name both skipped rungs; got %q", res2.DegradeReason)
	}
	if delta != 2 {
		t.Errorf("degradations_total{reason=\"max-gates\"} += %d, want 2 (one per skipped rung)", delta)
	}
}

// TestTrueLeakageBudgetedPairBoundary: MaxPairs exactly at the pair count
// admits the truth; one pair less skips only the O(n²) rung and lands on
// the exact linear method, counting one max-pairs degradation.
func TestTrueLeakageBudgetedPairBoundary(t *testing.T) {
	const n = 16
	est, nl, pl := robustCircuit(t, n)

	res, err := budgeted(est, EstimateBudget{MaxPairs: pairs(n)}).TrueLeakageContext(context.Background(), nl, pl, 0.5)
	if err != nil {
		t.Fatalf("MaxPairs=pairs(n): %v", err)
	}
	if res.Degraded || res.Method != "true-n2" {
		t.Fatalf("MaxPairs=pairs(n) must admit the O(n²) rung; got %q, degraded %v", res.Method, res.Degraded)
	}

	var res2 Result
	delta := metricDelta(`degradations_total{reason="max-pairs"}`, func() {
		res2, err = budgeted(est, EstimateBudget{MaxPairs: pairs(n) - 1}).TrueLeakageContext(context.Background(), nl, pl, 0.5)
	})
	if err != nil {
		t.Fatalf("MaxPairs=pairs(n)-1: %v", err)
	}
	if !res2.Degraded || res2.Method != "linear" {
		t.Fatalf("one pair under budget must degrade to the linear rung; got %q, degraded %v", res2.Method, res2.Degraded)
	}
	if delta != 1 {
		t.Errorf("degradations_total{reason=\"max-pairs\"} += %d, want 1", delta)
	}
}

// TestEstimateBudgetedGateBoundary covers the early-mode ladder (no O(n²)
// rung): MaxGates at n runs linear; one under degrades straight to O(1)
// with a single max-gates increment.
func TestEstimateBudgetedGateBoundary(t *testing.T) {
	est := coreEstimator(t)
	design := Design{Hist: coreHist(t), N: 100, W: 50, H: 50, SignalProb: 0.5}

	res, err := budgeted(est, EstimateBudget{MaxGates: design.N}).EstimateContext(context.Background(), design, Auto)
	if err != nil {
		t.Fatalf("MaxGates=n: %v", err)
	}
	if res.Degraded || res.Method != "linear" {
		t.Fatalf("MaxGates=n must run the linear rung; got %q, degraded %v", res.Method, res.Degraded)
	}

	var res2 Result
	delta := metricDelta(`degradations_total{reason="max-gates"}`, func() {
		res2, err = budgeted(est, EstimateBudget{MaxGates: design.N - 1}).EstimateContext(context.Background(), design, Auto)
	})
	if err != nil {
		t.Fatalf("MaxGates=n-1: %v", err)
	}
	if !res2.Degraded {
		t.Fatal("MaxGates=n-1 must degrade")
	}
	if res2.Method != "polar-1d" && res2.Method != "integral-2d" {
		t.Errorf("degraded method = %q, want a constant-time integral", res2.Method)
	}
	if delta != 1 {
		t.Errorf("degradations_total{reason=\"max-gates\"} += %d, want 1 (early mode has one gate-bounded rung)", delta)
	}
}

// TestBudgetTimeoutCountsPerRung: an unmeetable per-rung deadline times out
// the O(n²) and O(n) rungs in turn, lands on the uninterruptible O(1)
// integral, and counts one timeout degradation per fallen rung.
func TestBudgetTimeoutCountsPerRung(t *testing.T) {
	est, nl, pl := robustCircuit(t, 200)

	var res Result
	var err error
	delta := metricDelta(`degradations_total{reason="timeout"}`, func() {
		res, err = budgeted(est, EstimateBudget{Timeout: time.Nanosecond}).TrueLeakageContext(context.Background(), nl, pl, 0.5)
	})
	if err != nil {
		t.Fatalf("TrueLeakageContext: %v", err)
	}
	if !res.Degraded {
		t.Fatal("a 1 ns per-rung deadline must degrade")
	}
	if res.Method != "polar-1d" && res.Method != "integral-2d" {
		t.Errorf("method = %q, want a constant-time integral", res.Method)
	}
	if !strings.Contains(res.DegradeReason, "timed out") {
		t.Errorf("DegradeReason = %q, want a timeout mention", res.DegradeReason)
	}
	if delta != 2 {
		t.Errorf("degradations_total{reason=\"timeout\"} += %d, want 2", delta)
	}
}

// TestBudgetTimeoutDegradesOnlyTheSlowRung is the per-rung deadline
// boundary: a Sleep fault makes each O(n²) truth row take far longer than
// the budget Timeout, so that rung alone blows its deadline and degrades —
// counting exactly one degradations_total{reason="timeout"} — while the
// unfaulted O(n) rung finishes within a fresh per-rung deadline and serves
// the result. The call as a whole must succeed: Timeout is a rung budget,
// not a call budget.
func TestBudgetTimeoutDegradesOnlyTheSlowRung(t *testing.T) {
	est, nl, pl := robustCircuit(t, 60)
	defer fault.Reset()
	// Each truth row pauses 400 ms against a 40 ms rung deadline: the O(n²)
	// rung cannot finish a single row before its context fires, regardless
	// of scheduler jitter. The linear rung never hits this site.
	fault.Arm(fault.SiteTruthRow, fault.Action{Kind: fault.Sleep, Delay: 400 * time.Millisecond})

	var res Result
	var err error
	delta := metricDelta(`degradations_total{reason="timeout"}`, func() {
		res, err = budgeted(est, EstimateBudget{Timeout: 40 * time.Millisecond}).TrueLeakageContext(context.Background(), nl, pl, 0.5)
	})
	if err != nil {
		t.Fatalf("a rung deadline must degrade, not fail the call: %v", err)
	}
	if !res.Degraded {
		t.Fatal("timed-out O(n²) rung must mark the result degraded")
	}
	if res.Method != "linear" {
		t.Errorf("method = %q, want the next rung down (linear)", res.Method)
	}
	if !strings.Contains(res.DegradeReason, "timed out") {
		t.Errorf("DegradeReason = %q, want a timeout mention", res.DegradeReason)
	}
	if delta != 1 {
		t.Errorf("degradations_total{reason=\"timeout\"} += %d, want 1 (only the truth rung timed out)", delta)
	}
}

// TestBudgetTimeoutGenerousDeadlineDoesNotDegrade: a deadline the rung
// comfortably meets must leave the ladder untouched — the boundary's other
// side.
func TestBudgetTimeoutGenerousDeadlineDoesNotDegrade(t *testing.T) {
	est, nl, pl := robustCircuit(t, 60)
	var res Result
	var err error
	delta := metricDelta(`degradations_total{reason="timeout"}`, func() {
		res, err = budgeted(est, EstimateBudget{Timeout: time.Hour}).TrueLeakageContext(context.Background(), nl, pl, 0.5)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || res.Method != "true-n2" {
		t.Errorf("generous deadline degraded: method %q, degraded %v (%s)",
			res.Method, res.Degraded, res.DegradeReason)
	}
	if delta != 0 {
		t.Errorf("degradations_total{reason=\"timeout\"} += %d, want 0", delta)
	}
}

// TestBudgetCallerCancelIsNotDegradable: a dead parent context must surface
// as a typed cancellation, never as a silent fall down the ladder.
func TestBudgetCallerCancelIsNotDegradable(t *testing.T) {
	est, nl, pl := robustCircuit(t, 150)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := budgeted(est, EstimateBudget{Timeout: time.Second}).TrueLeakageContext(ctx, nl, pl, 0.5)
	if err == nil {
		t.Fatal("canceled context must fail, not degrade")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("got %v, want ErrCanceled", err)
	}
}

// TestMonteCarloBudgetBoundary pins the sampler's gate cap at its exact
// boundary: n gates pass with MaxGates = n, and MaxGates = n−1 returns the
// typed BudgetExceeded without running any trials.
func TestMonteCarloBudgetBoundary(t *testing.T) {
	const n = 16
	est, nl, pl := robustCircuit(t, n)
	if _, err := monteCarloCapped(est, nl, pl, 10, n); err != nil {
		t.Fatalf("MaxGates=n: %v", err)
	}
	_, err := monteCarloCapped(est, nl, pl, 10, n-1)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("MaxGates=n-1: got %v, want ErrBudgetExceeded", err)
	}
}
