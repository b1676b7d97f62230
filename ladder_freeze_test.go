package leakest

import (
	"bytes"
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
	bigDie    bool // early mode: a die wider than the correlation range
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
		mean: 0x3ece5b791d7c3ba4, std: 0x3eb4032687488208, method: "linear", keys: "gates,method"},
	{name: "early/linear/tiles", tiles: 2, budget: EstimateBudget{MaxGates: 100},
		mean: 0x3ece5b791d7c3ba4, std: 0x3eb4032687488208, method: "linear-tiled", keys: "gates,method"},
	{name: "early/max-gates/integral", budget: EstimateBudget{MaxGates: 99},
		mean: 0x3ece5b791d7c3ba4, std: 0x3eb318bd8763e978, method: "polar-1d", degraded: true, reason: "o(n) skipped: 100 gates > MaxGates=99", keys: "degrade_reason,degraded,degraded.o(n),gates,method"},
	{name: "early/max-gates/polar", bigDie: true, budget: EstimateBudget{MaxGates: 99},
		mean: 0x3ece5b791d7c3ba4, std: 0x3eaad584c09385b3, method: "polar-1d", degraded: true, reason: "o(n) skipped: 100 gates > MaxGates=99", keys: "degrade_reason,degraded,degraded.o(n),gates,method"},
	{name: "early/max-gates/tiles", tiles: 2, budget: EstimateBudget{MaxGates: 99},
		mean: 0x3ece5b791d7c3ba4, std: 0x3eb318bd8763e978, method: "polar-1d", degraded: true, reason: "o(n) skipped: 100 gates > MaxGates=99", keys: "degrade_reason,degraded,degraded.o(n),gates,method"},
	{name: "early/timeout", budget: EstimateBudget{Timeout: time.Nanosecond},
		mean: 0x3ece5b791d7c3ba4, std: 0x3eb318bd8763e978, method: "polar-1d", degraded: true, reason: "o(n) timed out", keys: "degrade_reason,degraded,degraded.o(n),gates,method"},
	{name: "early/timeout/tiles", tiles: 2, budget: EstimateBudget{Timeout: time.Nanosecond},
		mean: 0x3ece5b791d7c3ba4, std: 0x3eb318bd8763e978, method: "polar-1d", degraded: true, reason: "o(n) timed out", keys: "degrade_reason,degraded,degraded.o(n),gates,method"},
	{name: "late/truth", late: true, budget: EstimateBudget{MaxPairs: 1770},
		mean: 0x3ec22d6dd11dd866, std: 0x3ea7958d427e1468, method: "true-n2", keys: "method"},
	{name: "late/truth/tiles", late: true, tiles: 2, budget: EstimateBudget{MaxGates: 60},
		mean: 0x3ec22d6dd11dd866, std: 0x3ea7958d427e1468, method: "true-n2", keys: "method"},
	{name: "late/max-pairs", late: true, budget: EstimateBudget{MaxPairs: 1769},
		mean: 0x3ec22d6dd11dd869, std: 0x3ea8dee65523b50c, method: "linear", degraded: true, reason: "o(n²) skipped: 1770 pairs > MaxPairs=1769", keys: "degrade_reason,degraded,degraded.o(n²),method"},
	{name: "late/max-pairs/tiles", late: true, tiles: 2, budget: EstimateBudget{MaxPairs: 1769},
		mean: 0x3ec22d6dd11dd869, std: 0x3ea8dee65523b50c, method: "linear", degraded: true, reason: "o(n²) skipped: 1770 pairs > MaxPairs=1769", keys: "degrade_reason,degraded,degraded.o(n²),method"},
	{name: "late/max-gates", late: true, budget: EstimateBudget{MaxGates: 59},
		mean: 0x3ec22d6dd11dd869, std: 0x3ea6fa68f37e8174, method: "polar-1d", degraded: true, reason: "o(n²) skipped: 60 gates > MaxGates=59; o(n) skipped: 60 gates > MaxGates=59", keys: "degrade_reason,degraded,degraded.o(n),degraded.o(n²),method"},
	{name: "late/max-gates/tiles", late: true, tiles: 2, budget: EstimateBudget{MaxGates: 59},
		mean: 0x3ec22d6dd11dd869, std: 0x3ea6fa68f37e8174, method: "polar-1d", degraded: true, reason: "o(n²) skipped: 60 gates > MaxGates=59; o(n) skipped: 60 gates > MaxGates=59", keys: "degrade_reason,degraded,degraded.o(n),degraded.o(n²),method"},
	{name: "late/timeout-fault", late: true, slowTruth: true, budget: EstimateBudget{Timeout: 40 * time.Millisecond},
		mean: 0x3ec22d6dd11dd869, std: 0x3ea8dee65523b50c, method: "linear", degraded: true, reason: "o(n²) timed out", keys: "degrade_reason,degraded,degraded.o(n²),method"},
	{name: "late/timeout-fault/tiles", late: true, tiles: 2, slowTruth: true, budget: EstimateBudget{Timeout: 40 * time.Millisecond},
		mean: 0x3ec22d6dd11dd869, std: 0x3ea8dee65523b50c, method: "linear", degraded: true, reason: "o(n²) timed out", keys: "degrade_reason,degraded,degraded.o(n²),method"},
	{name: "late/timeout", late: true, budget: EstimateBudget{Timeout: time.Nanosecond},
		mean: 0x3ec22d6dd11dd869, std: 0x3ea6fa68f37e8174, method: "polar-1d", degraded: true, reason: "o(n²) timed out; o(n) timed out", keys: "degrade_reason,degraded,degraded.o(n),degraded.o(n²),method"},
	{name: "late/timeout/tiles", late: true, tiles: 2, budget: EstimateBudget{Timeout: time.Nanosecond},
		mean: 0x3ec22d6dd11dd869, std: 0x3ea6fa68f37e8174, method: "polar-1d", degraded: true, reason: "o(n²) timed out; o(n) timed out", keys: "degrade_reason,degraded,degraded.o(n),degraded.o(n²),method"},
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

// streamCase is one frozen zero-budget EstimateStream run on a synthetic
// stream: the bit patterns of Mean and Std, the method, and every TileStat
// as index/row/col/gates/mean-bits/std-bits.
type streamCase struct {
	tiles     int
	mean, std uint64
	method    string
	tileStats string
}

// streamFreeze pins a 1-tile and a 2×2-tile stream of 800 gates on a
// 30×30 grid, whose scanned per-tile counts differ from the estimator's own
// allocation. Regenerate only deliberately: LEAKEST_FREEZE_PRINT=1.
var streamFreeze = []streamCase{
	{tiles: 1, mean: 0x3f03c85cc7d49b91, std: 0x3ee8fee68b98a08c, method: "linear-tiled",
		tileStats: "0/0/0/800/0x3f03c85cc7d49b91/0x3ee8fee68b98a08c"},
	{tiles: 2, mean: 0x3f03c85cc7d49b91, std: 0x3ee8fee68b98a08c, method: "linear-tiled",
		tileStats: "0/0/0/225/0x3ee6416860cf2f03/0x3ecca243d5804ad8;1/0/1/225/0x3ee6416860cf2f03/0x3ecca243d5804ad8;" +
			"2/1/0/225/0x3ee6416860cf2f03/0x3ecca13d8fe94c91;3/1/1/125/0x3ed8ba73f9c9c275/0x3ec02559e4de8ee9"},
}

const streamFreezeGates = 800

// synthStream writes the frozen synthetic stream at the given tiling.
func synthStream(t *testing.T, tiles int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSyntheticStream(&buf, "freeze", 30, 30, 2, 2, tiles,
		[]string{"INV_X1", "NAND2_X1", "NOR2_X1", "XOR2_X1"}, streamFreezeGates); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func tileStatsKey(ts []TileStat) string {
	var parts []string
	for _, s := range ts {
		parts = append(parts, fmt.Sprintf("%d/%d/%d/%d/%#x/%#x", s.Index, s.Row, s.Col, s.Gates,
			math.Float64bits(s.Mean), math.Float64bits(s.Std)))
	}
	return strings.Join(parts, ";")
}

// TestStreamFreeze pins EstimateStream's unbudgeted result bitwise at 1, 3
// and 8 workers, and the span names and attributes perfbench reads:
// estimate.stream with its gate count, netlist.stream_scan and
// estimate.linear-tiled. A one-tile stream's only TileStat has the chip's
// moments.
func TestStreamFreeze(t *testing.T) {
	print := os.Getenv("LEAKEST_FREEZE_PRINT") != ""
	est := coreEstimator(t)
	for _, c := range streamFreeze {
		t.Run(fmt.Sprintf("tiles=%d", c.tiles), func(t *testing.T) {
			for _, workers := range []int{1, 3, 8} {
				est.Workers = workers
				tr := NewTrace()
				res, err := est.EstimateStream(WithTrace(context.Background(), tr), bytes.NewReader(synthStream(t, c.tiles)), 0.5)
				if err != nil {
					t.Fatal(err)
				}
				seen := map[string]bool{}
				for _, sp := range tr.Snapshot().Spans {
					seen[sp.Stage] = true
					if sp.Stage != "estimate.stream" {
						continue
					}
					gates := false
					for _, a := range sp.Attrs {
						gates = gates || a.Key == "gates" && a.Value == int64(streamFreezeGates)
					}
					if !gates {
						t.Errorf("estimate.stream attributes %v lack gates=%d", sp.Attrs, streamFreezeGates)
					}
				}
				for _, stage := range []string{"estimate.stream", "netlist.stream_scan", "estimate.linear-tiled"} {
					if !seen[stage] {
						t.Errorf("no %s span", stage)
					}
				}
				got := streamCase{tiles: c.tiles, mean: math.Float64bits(res.Mean), std: math.Float64bits(res.Std),
					method: res.Method, tileStats: tileStatsKey(res.TileStats)}
				if print {
					fmt.Printf("{tiles: %d, mean: %#x, std: %#x, method: %q,\n\t\ttileStats: %q},\n",
						got.tiles, got.mean, got.std, got.method, got.tileStats)
					return
				}
				if got != c {
					t.Errorf("workers=%d: stream result\n%+v\nfrozen\n%+v", workers, got, c)
				}
				if c.tiles == 1 && (res.TileStats[0].Mean != res.Mean || res.TileStats[0].Std != res.Std) {
					t.Errorf("workers=%d: one tile %+v, chip (%x, %x)", workers, res.TileStats[0], res.Mean, res.Std)
				}
			}
		})
	}
}
