package telemetry

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// StageTiming is one entry of a per-run timing breakdown.
type StageTiming struct {
	// Stage names the pipeline stage (see DESIGN.md for the stage name
	// reference).
	Stage string `json:"stage"`
	// Duration is the stage's wall-clock time.
	Duration time.Duration `json:"duration"`
}

// Seconds returns the duration in seconds, for report rendering.
func (s StageTiming) Seconds() float64 { return s.Duration.Seconds() }

// Attr is one key/value attribute attached to a span or a trace: the
// numerical-health facts that explain a run (sampler chosen, degradation
// rung, clamp bias, cache hit/miss, …).
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// span is the internal record of one tree node. Offsets are relative to the
// trace origin; end < 0 marks a span still open.
type span struct {
	parent int
	stage  string
	start  time.Duration
	end    time.Duration
	attrs  []Attr
}

// Trace is the request-scoped record of one estimation run: a tree of spans
// (parent/child, start/end offsets, per-span attributes) plus the flat
// completion-order stage timings that feed Result.Timings. It is safe for
// concurrent use; worker goroutines merge their spans through AddSpanAt on
// the coordinating goroutine, so tree structure stays deterministic.
type Trace struct {
	mu      sync.Mutex
	id      string
	origin  time.Time
	spans   []span
	attrs   []Attr // trace-level attributes (no current span in context)
	stages  []StageTiming
	outcome string
}

// traceSeq feeds lazily generated trace IDs; process-unique, not global.
var traceSeq atomic.Uint64

// NewTrace returns an empty trace anchored at the current time.
func NewTrace() *Trace { return &Trace{origin: time.Now()} }

// SetID names the trace (e.g. with the server request ID). An empty trace ID
// is replaced lazily by ID().
func (t *Trace) SetID(id string) {
	t.mu.Lock()
	t.id = id
	t.mu.Unlock()
}

// ID returns the trace's identifier, generating a process-unique one on
// first use when none was set.
func (t *Trace) ID() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.id == "" {
		t.id = fmt.Sprintf("t-%08x", traceSeq.Add(1))
	}
	return t.id
}

// SetOutcome records how the traced run ended ("ok", "degraded", "error",
// …); the flight recorder's notable ring keys off it.
func (t *Trace) SetOutcome(outcome string) {
	t.mu.Lock()
	t.outcome = outcome
	t.mu.Unlock()
}

// Stages returns a copy of the recorded timings, in completion order.
func (t *Trace) Stages() []StageTiming {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]StageTiming(nil), t.stages...)
}

// startSpan opens a child of parent (0 = top level) and returns its 1-based
// span ID.
func (t *Trace) startSpan(parent int, stage string) int {
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans = append(t.spans, span{parent: parent, stage: stage, start: now, end: -1})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

// endSpan closes span id after duration d and appends the flat stage timing.
func (t *Trace) endSpan(id int, stage string, d time.Duration) {
	t.mu.Lock()
	if id >= 1 && id <= len(t.spans) {
		sp := &t.spans[id-1]
		sp.end = sp.start + d
	}
	t.stages = append(t.stages, StageTiming{Stage: stage, Duration: d})
	t.mu.Unlock()
}

// setAttr attaches key=value to span id, or to the trace itself when id is 0.
// Re-setting a key overwrites its value.
func (t *Trace) setAttr(id int, key string, value any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	list := &t.attrs
	if id >= 1 && id <= len(t.spans) {
		list = &t.spans[id-1].attrs
	}
	for i := range *list {
		if (*list)[i].Key == key {
			(*list)[i].Value = value
			return
		}
	}
	*list = append(*list, Attr{Key: key, Value: value})
}

// AddSpanAt records an already-completed span under parent with explicit
// timing — the deterministic-merge entry point the parallel pool uses to
// fold worker-goroutine spans into the trace in a fixed order after the
// fan-out joins. It returns the new span's ID. Unlike StartSpan, the span
// does not enter the flat Stages breakdown (Result.Timings must not vary
// with the worker count).
func (t *Trace) AddSpanAt(parent int, stage string, start time.Time, d time.Duration, attrs ...Attr) int {
	off := start.Sub(t.origin)
	t.mu.Lock()
	t.spans = append(t.spans, span{
		parent: parent, stage: stage,
		start: off, end: off + d,
		attrs: append([]Attr(nil), attrs...),
	})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

// SpanSnapshot is the exported form of one span-tree node; times are
// seconds relative to the trace start.
type SpanSnapshot struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Stage  string  `json:"stage"`
	StartS float64 `json:"start_s"`
	DurS   float64 `json:"duration_s"`
	Attrs  []Attr  `json:"attrs,omitempty"`
}

// TraceSnapshot is the wire- and flight-recorder form of a trace: the
// structured `trace` block of leakestd responses and /debug/traces bodies.
type TraceSnapshot struct {
	ID      string         `json:"id"`
	Start   time.Time      `json:"start"`
	DurS    float64        `json:"duration_s"`
	Outcome string         `json:"outcome,omitempty"`
	Attrs   []Attr         `json:"attrs,omitempty"`
	Spans   []SpanSnapshot `json:"spans,omitempty"`
}

// Root returns the stage name of the snapshot's first top-level span.
func (s TraceSnapshot) Root() string {
	for _, sp := range s.Spans {
		if sp.Parent == 0 {
			return sp.Stage
		}
	}
	return ""
}

// Snapshot renders the trace's current state. A span still open is reported
// with the duration it has accumulated so far.
func (t *Trace) Snapshot() TraceSnapshot {
	id := t.ID() // force an ID outside the lock below
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := TraceSnapshot{
		ID:      id,
		Start:   t.origin,
		DurS:    now.Seconds(),
		Outcome: t.outcome,
		Attrs:   append([]Attr(nil), t.attrs...),
		Spans:   make([]SpanSnapshot, len(t.spans)),
	}
	for i, sp := range t.spans {
		end := sp.end
		if end < 0 {
			end = now
		}
		snap.Spans[i] = SpanSnapshot{
			ID: i + 1, Parent: sp.parent, Stage: sp.stage,
			StartS: sp.start.Seconds(),
			DurS:   (end - sp.start).Seconds(),
			Attrs:  append([]Attr(nil), sp.attrs...),
		}
	}
	return snap
}

type traceKey struct{}
type spanKey struct{}

// WithTrace returns a context carrying t; spans started under it record
// their stage timings into t.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the trace carried by ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// SpanContext returns the trace carried by ctx and the current span ID
// (0 when no enclosing WithSpan). The parallel pool uses it to parent its
// deterministically merged shard spans.
func SpanContext(ctx context.Context) (*Trace, int) {
	tr := TraceFrom(ctx)
	if tr == nil {
		return nil, 0
	}
	id, _ := ctx.Value(spanKey{}).(int)
	return tr, id
}

// spanIDFrom returns ctx's current span ID, 0 when none.
func spanIDFrom(ctx context.Context) int {
	id, _ := ctx.Value(spanKey{}).(int)
	return id
}

// EnsureTrace returns ctx with a trace attached, reusing one already
// present. Public entry points call it so every Result can carry a timing
// breakdown.
func EnsureTrace(ctx context.Context) (context.Context, *Trace) {
	if t := TraceFrom(ctx); t != nil {
		return ctx, t
	}
	t := NewTrace()
	return WithTrace(ctx, t), t
}

// noopEnd is the shared span terminator returned when every sink is off.
var noopEnd = func() {}

// observeStage feeds the stage histogram, attaching the trace ID as the
// exemplar so a latency spike on /metrics links to a recorded trace.
func observeStage(tr *Trace, stage string, d time.Duration) {
	if !sinkOn.Load() {
		return
	}
	ex := ""
	if tr != nil {
		ex = tr.ID()
	}
	ObserveSecondsEx(Label("estimate_stage_duration_seconds", "stage", stage), d.Seconds(), ex)
}

// StartSpan begins timing the named pipeline stage and returns the function
// that ends it. The span is recorded as a leaf child of the context's
// current span (see WithSpan); on end, the duration is appended to the
// context's Trace (if any) and observed into the default registry's
// estimate_stage_duration_seconds{stage=...} histogram (if metrics are
// enabled). With no trace and no sink the span is a nil-check no-op; spans
// are placed at stage granularity, never inside inner loops.
func StartSpan(ctx context.Context, stage string) func() {
	tr := TraceFrom(ctx)
	if tr == nil && !sinkOn.Load() && logger.Load() == nil {
		return noopEnd
	}
	sid := 0
	if tr != nil {
		sid = tr.startSpan(spanIDFrom(ctx), stage)
	}
	start := time.Now()
	return func() {
		d := time.Since(start)
		if tr != nil {
			tr.endSpan(sid, stage, d)
		}
		observeStage(tr, stage, d)
		Debug("stage done", "stage", stage, "duration", d)
	}
}

// WithSpan is StartSpan for stages that contain other stages: the returned
// context carries the new span, so spans (and attributes) recorded under it
// become its children. End closes the span; use it deferred like StartSpan.
// Disabled-path cost matches StartSpan (a nil check), and without a trace no
// derived context is allocated.
func WithSpan(ctx context.Context, stage string) (context.Context, func()) {
	tr := TraceFrom(ctx)
	if tr == nil {
		return ctx, StartSpan(ctx, stage) // metrics/log-only timing, no tree
	}
	sid := tr.startSpan(spanIDFrom(ctx), stage)
	ctx = context.WithValue(ctx, spanKey{}, sid)
	start := time.Now()
	return ctx, func() {
		d := time.Since(start)
		tr.endSpan(sid, stage, d)
		observeStage(tr, stage, d)
		Debug("stage done", "stage", stage, "duration", d)
	}
}

// SpanAttr* attach one attribute to the context's current span (or to the
// trace itself outside any WithSpan). They are nil-check no-ops without a
// trace — the typed variants exist so the disabled path never boxes the
// value into an interface.

// SpanAttrStr records a string attribute on the current span.
func SpanAttrStr(ctx context.Context, key, value string) {
	if tr := TraceFrom(ctx); tr != nil {
		tr.setAttr(spanIDFrom(ctx), key, value)
	}
}

// SpanAttrInt records an integer attribute on the current span.
func SpanAttrInt(ctx context.Context, key string, value int64) {
	if tr := TraceFrom(ctx); tr != nil {
		tr.setAttr(spanIDFrom(ctx), key, value)
	}
}

// SpanAttrFloat records a float attribute on the current span.
func SpanAttrFloat(ctx context.Context, key string, value float64) {
	if tr := TraceFrom(ctx); tr != nil {
		tr.setAttr(spanIDFrom(ctx), key, value)
	}
}

// SpanAttrBool records a boolean attribute on the current span.
func SpanAttrBool(ctx context.Context, key string, value bool) {
	if tr := TraceFrom(ctx); tr != nil {
		tr.setAttr(spanIDFrom(ctx), key, value)
	}
}

// TimeStage is StartSpan for call sites that have no context (e.g. the
// Cholesky kernel in internal/linalg): the duration goes to the default
// registry and debug log only. It is a single atomic load when telemetry is
// off.
func TimeStage(stage string) func() {
	if !sinkOn.Load() && logger.Load() == nil {
		return noopEnd
	}
	start := time.Now()
	return func() {
		d := time.Since(start)
		ObserveSeconds(Label("estimate_stage_duration_seconds", "stage", stage), d.Seconds())
		Debug("stage done", "stage", stage, "duration", d)
	}
}
