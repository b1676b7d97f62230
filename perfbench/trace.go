package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"

	"leakest/internal/telemetry"
)

// The traced run attaches a telemetry.Trace to every op's context, so the
// program records its own spans (charlib.characterize, core.model,
// estimate.linear, core.truth, netlist.stream_scan, chipmc.run,
// randvar.grid_embed, chipmc.cholesky, …). The benchmark adds spans of its
// own only where the program has none: each op's root "op.<kind>" and the
// parse and placement calls of the truth op. The service workload grafts
// the span tree of each response's trace block under its op root. Spans
// stay in memory and are written out when the run ends.

// tracedOp is one op's span tree with every span's self time. Op is -1
// for a setup round.
type tracedOp struct {
	Op    int          `json:"op"`
	Kind  string       `json:"kind"`
	Spans []tracedSpan `json:"spans"`
}

type tracedSpan struct {
	telemetry.SpanSnapshot
	// SelfS is the span's duration minus the part its child spans cover
	// (see newTracedOp). The worker pool's "<op>.shard" spans mark where a
	// worker ran inside its parent; they are not a layer and do not count
	// as children.
	SelfS float64 `json:"self_s"`
}

// isShard reports whether a span is the worker pool's shard record.
func isShard(stage string) bool { return strings.HasSuffix(stage, ".shard") }

// containEps absorbs the rounding of span times that went through a
// response's JSON.
const containEps = 1e-6

// newTracedOp computes the self times of one op's spans. The program opens
// leaf spans (StartSpan) under the nearest enclosing WithSpan, so a leaf
// that runs inside another leaf (truth.class_precompute inside core.truth,
// randvar.grid_embed inside chipmc.fft_setup) is recorded as its sibling.
// A span's effective parent is therefore the shortest sibling whose
// interval contains it, else its recorded parent.
func newTracedOp(op int, snap telemetry.TraceSnapshot) tracedOp {
	spans := snap.Spans
	contains := func(a, b telemetry.SpanSnapshot) bool {
		return a.ID != b.ID && a.Parent == b.Parent && !isShard(a.Stage) &&
			(a.DurS > b.DurS || (a.DurS == b.DurS && a.ID < b.ID)) &&
			a.StartS <= b.StartS+containEps && b.StartS+b.DurS <= a.StartS+a.DurS+containEps
	}
	child := make(map[int]float64, len(spans))
	for _, s := range spans {
		if isShard(s.Stage) {
			continue
		}
		parent := s.Parent
		best := -1.0
		for _, c := range spans {
			if contains(c, s) && (best < 0 || c.DurS < best) {
				parent, best = c.ID, c.DurS
			}
		}
		if parent != 0 {
			child[parent] += s.DurS
		}
	}
	t := tracedOp{Op: op}
	for _, s := range spans {
		if s.Parent == 0 && strings.HasPrefix(s.Stage, "op.") {
			t.Kind = strings.TrimPrefix(s.Stage, "op.")
		}
		t.Spans = append(t.Spans, tracedSpan{SpanSnapshot: s, SelfS: s.DurS - child[s.ID]})
	}
	return t
}

// tracedOps collects the setup rounds' and the timed ops' span trees.
func tracedOps(setup []telemetry.TraceSnapshot, outs []opOut) []tracedOp {
	var ops []tracedOp
	for _, snap := range setup {
		ops = append(ops, newTracedOp(-1, snap))
	}
	for _, o := range outs {
		if o.trace != nil {
			ops = append(ops, newTracedOp(o.i, *o.trace))
		}
	}
	return ops
}

// graftSpans copies another trace's spans (a response's trace block) into
// tr under parent, keeping their tree and their times.
func graftSpans(tr *telemetry.Trace, parent int, snap telemetry.TraceSnapshot) {
	ids := make(map[int]int, len(snap.Spans))
	for _, s := range snap.Spans {
		p, ok := ids[s.Parent]
		if !ok {
			p = parent
		}
		start := snap.Start.Add(secondsDur(s.StartS))
		ids[s.ID] = tr.AddSpanAt(p, s.Stage, start, secondsDur(s.DurS), s.Attrs...)
	}
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// writeSpans stores the traced ops as JSON at path.
func writeSpans(path string, ops []tracedOp) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(ops); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// median returns the median of xs (0 for none); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
