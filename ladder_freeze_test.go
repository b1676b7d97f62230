package leakest

import (
	"context"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"leakest/internal/fault"
)

// ladderCase is one frozen run of the budgeted degradation ladder: the
// inputs, and the outcome recorded before the ladder was restructured —
// the bit patterns of Mean and Std, the method that served, the
// degradation flag and reason, and the sorted attribute keys of the
// estimate / true_leakage span.
type ladderCase struct {
	name      string
	late      bool // true: the O(n²) truth ladder; false: early-mode estimate
	bigDie    bool // early mode: a die wide enough for the polar integral
	tiles     int
	budget    EstimateBudget
	slowTruth bool // arm a Sleep fault on every O(n²) truth row

	mean, std uint64
	method    string
	degraded  bool
	reason    string
	keys      string
}

// ladderFreeze covers every rung in early and late mode with and without
// tiles, and each degradation reason (max-pairs, max-gates, timeout — the
// latter both from a fault-slowed truth rung and from an unmeetable rung
// deadline). Regenerate only deliberately: LEAKEST_FREEZE_PRINT=1 prints
// the rows.
var ladderFreeze = []ladderCase{
	{name: "early/linear", budget: EstimateBudget{MaxGates: 100},
		mean: 0x3ece5b791d7c3ba4, std: 0x3eb4032a75295131, method: "linear", keys: "gates,method"},
	{name: "early/linear/tiles", tiles: 2, budget: EstimateBudget{MaxGates: 100},
		mean: 0x3ece5b791d7c3ba4, std: 0x3eb4032a75295131, method: "linear-tiled", keys: "gates,method"},
	{name: "early/max-gates/integral", budget: EstimateBudget{MaxGates: 99},
		mean: 0x3ece5b791d7c3ba4, std: 0x3eb318c1a521c6d1, method: "integral-2d", degraded: true, reason: "o(n) skipped: 100 gates > MaxGates=99", keys: "degrade_reason,degraded,degraded.o(n),gates,method"},
	{name: "early/max-gates/polar", bigDie: true, budget: EstimateBudget{MaxGates: 99},
		mean: 0x3ece5b791d7c3ba4, std: 0x3eaad584c0999985, method: "polar-1d", degraded: true, reason: "o(n) skipped: 100 gates > MaxGates=99", keys: "degrade_reason,degraded,degraded.o(n),gates,method"},
	{name: "early/max-gates/tiles", tiles: 2, budget: EstimateBudget{MaxGates: 99},
		mean: 0x3ece5b791d7c3ba4, std: 0x3eb318c1a521c6d1, method: "integral-2d", degraded: true, reason: "o(n) skipped: 100 gates > MaxGates=99", keys: "degrade_reason,degraded,degraded.o(n),gates,method"},
	{name: "early/timeout", budget: EstimateBudget{Timeout: time.Nanosecond},
		mean: 0x3ece5b791d7c3ba4, std: 0x3eb318c1a521c6d1, method: "integral-2d", degraded: true, reason: "o(n) timed out", keys: "degrade_reason,degraded,degraded.o(n),gates,method"},
	{name: "early/timeout/tiles", tiles: 2, budget: EstimateBudget{Timeout: time.Nanosecond},
		mean: 0x3ece5b791d7c3ba4, std: 0x3eb318c1a521c6d1, method: "integral-2d", degraded: true, reason: "o(n) timed out", keys: "degrade_reason,degraded,degraded.o(n),gates,method"},
	{name: "late/truth", late: true, budget: EstimateBudget{MaxPairs: 1770},
		mean: 0x3ec22d6dd11dd866, std: 0x3ea795907daa6fe7, method: "true-n2", keys: "method"},
	{name: "late/truth/tiles", late: true, tiles: 2, budget: EstimateBudget{MaxGates: 60},
		mean: 0x3ec22d6dd11dd866, std: 0x3ea795907daa6fe7, method: "true-n2", keys: "method"},
	{name: "late/max-pairs", late: true, budget: EstimateBudget{MaxPairs: 1769},
		mean: 0x3ec22d6dd11dd869, std: 0x3ea8dee99269dd4d, method: "linear", degraded: true, reason: "o(n²) skipped: 1770 pairs > MaxPairs=1769", keys: "degrade_reason,degraded,degraded.o(n²),method"},
	{name: "late/max-pairs/tiles", late: true, tiles: 2, budget: EstimateBudget{MaxPairs: 1769},
		mean: 0x3ec22d6dd11dd869, std: 0x3ea8dee99269dd4d, method: "linear", degraded: true, reason: "o(n²) skipped: 1770 pairs > MaxPairs=1769", keys: "degrade_reason,degraded,degraded.o(n²),method"},
	{name: "late/max-gates", late: true, budget: EstimateBudget{MaxGates: 59},
		mean: 0x3ec22d6dd11dd869, std: 0x3ea6fa6c7b72d195, method: "integral-2d", degraded: true, reason: "o(n²) skipped: 60 gates > MaxGates=59; o(n) skipped: 60 gates > MaxGates=59", keys: "degrade_reason,degraded,degraded.o(n),degraded.o(n²),method"},
	{name: "late/max-gates/tiles", late: true, tiles: 2, budget: EstimateBudget{MaxGates: 59},
		mean: 0x3ec22d6dd11dd869, std: 0x3ea6fa6c7b72d195, method: "integral-2d", degraded: true, reason: "o(n²) skipped: 60 gates > MaxGates=59; o(n) skipped: 60 gates > MaxGates=59", keys: "degrade_reason,degraded,degraded.o(n),degraded.o(n²),method"},
	{name: "late/timeout-fault", late: true, slowTruth: true, budget: EstimateBudget{Timeout: 40 * time.Millisecond},
		mean: 0x3ec22d6dd11dd869, std: 0x3ea8dee99269dd4d, method: "linear", degraded: true, reason: "o(n²) timed out", keys: "degrade_reason,degraded,degraded.o(n²),method"},
	{name: "late/timeout-fault/tiles", late: true, tiles: 2, slowTruth: true, budget: EstimateBudget{Timeout: 40 * time.Millisecond},
		mean: 0x3ec22d6dd11dd869, std: 0x3ea8dee99269dd4d, method: "linear", degraded: true, reason: "o(n²) timed out", keys: "degrade_reason,degraded,degraded.o(n²),method"},
	{name: "late/timeout", late: true, budget: EstimateBudget{Timeout: time.Nanosecond},
		mean: 0x3ec22d6dd11dd869, std: 0x3ea6fa6c7b72d195, method: "integral-2d", degraded: true, reason: "o(n²) timed out; o(n) timed out", keys: "degrade_reason,degraded,degraded.o(n),degraded.o(n²),method"},
	{name: "late/timeout/tiles", late: true, tiles: 2, budget: EstimateBudget{Timeout: time.Nanosecond},
		mean: 0x3ec22d6dd11dd869, std: 0x3ea6fa6c7b72d195, method: "integral-2d", degraded: true, reason: "o(n²) timed out; o(n) timed out", keys: "degrade_reason,degraded,degraded.o(n),degraded.o(n²),method"},
}

// runLadderCase runs one frozen case and returns its result and the span.
func runLadderCase(t *testing.T, c ladderCase) (Result, []string) {
	t.Helper()
	var (
		est    *Estimator
		nl     *Netlist
		pl     *Placement
		design Design
	)
	if c.late {
		est, nl, pl = robustCircuit(t, 60)
	} else {
		est = coreEstimator(t)
		design = Design{Hist: coreHist(t), N: 100, W: 50, H: 50, SignalProb: 0.5}
		if c.bigDie {
			design.W, design.H = 20000, 20000
		}
	}
	est.Tiles, est.Budget = c.tiles, c.budget
	if c.slowTruth {
		// Each truth row pauses far past the rung deadline, so the O(n²)
		// rung times out on its first row whatever the scheduler does.
		fault.Arm(fault.SiteTruthRow, fault.Action{Kind: fault.Sleep, Delay: 400 * time.Millisecond})
		defer fault.Reset()
	}
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	var (
		res  Result
		err  error
		span = "estimate"
	)
	if c.late {
		span = "true_leakage"
		res, err = est.TrueLeakageContext(ctx, nl, pl, 0.5)
	} else {
		res, err = est.EstimateContext(ctx, design, Auto)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range tr.Snapshot().Spans {
		if sp.Stage != span {
			continue
		}
		var keys []string
		for _, a := range sp.Attrs {
			keys = append(keys, a.Key)
		}
		sort.Strings(keys)
		return res, keys
	}
	t.Fatalf("no %s span in the trace", span)
	return Result{}, nil
}

// TestLadderFreeze pins every rung of the budgeted degradation ladder.
func TestLadderFreeze(t *testing.T) {
	print := os.Getenv("LEAKEST_FREEZE_PRINT") != ""
	for _, c := range ladderFreeze {
		t.Run(c.name, func(t *testing.T) {
			res, keys := runLadderCase(t, c)
			got := ladderCase{
				mean: math.Float64bits(res.Mean), std: math.Float64bits(res.Std),
				method: res.Method, degraded: res.Degraded, reason: res.DegradeReason,
				keys: strings.Join(keys, ","),
			}
			if print {
				fmt.Printf("%s\tmean: %#x, std: %#x, method: %q, degraded: %v, reason: %q, keys: %q\n",
					c.name, got.mean, got.std, got.method, got.degraded, got.reason, got.keys)
				return
			}
			if got.mean != c.mean || got.std != c.std {
				t.Errorf("moments %#x/%#x, frozen %#x/%#x", got.mean, got.std, c.mean, c.std)
			}
			if got.method != c.method || got.degraded != c.degraded || got.reason != c.reason {
				t.Errorf("outcome %q degraded=%v %q, frozen %q degraded=%v %q",
					got.method, got.degraded, got.reason, c.method, c.degraded, c.reason)
			}
			// One deliberate difference from the recording: a budgeted
			// truth span now carries "gates", as every estimate span did.
			if want := withGates(c.keys); got.keys != want {
				t.Errorf("span keys %q, want %q (frozen %q plus gates)", got.keys, want, c.keys)
			}
		})
	}
}

// withGates adds the "gates" key to a sorted, comma-joined key list.
func withGates(keys string) string {
	set := strings.Split(keys, ",")
	if !slices.Contains(set, "gates") {
		set = append(set, "gates")
		sort.Strings(set)
	}
	return strings.Join(set, ",")
}
