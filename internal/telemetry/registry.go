package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a concurrent metrics registry. Metrics are identified by
// their full name including any label set, e.g.
//
//	estimate_duration_seconds{method="linear"}
//
// (see Label). Lookup takes a read lock; the returned metric handles update
// with plain atomics, so hot paths should hold on to handles when they tick
// a metric more than once.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]metric
}

// metric is the common behaviour of counters, gauges and histograms.
type metric interface {
	// promType is the Prometheus TYPE of the metric family.
	promType() string
	// writeProm renders the metric's sample lines in Prometheus text format.
	writeProm(w io.Writer, base, labels string)
	// snapshotValue returns the exposition-friendly current value.
	snapshotValue() any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric)}
}

// Label renders a full metric name with one label attached, appending to any
// labels already present: Label(`a{x="1"}`, "y", "2") = `a{x="1",y="2"}`.
func Label(name, key, value string) string {
	pair := key + `="` + escapeLabel(value) + `"`
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:len(name)-1] + "," + pair + "}"
	}
	return name + "{" + pair + "}"
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// splitName separates a full metric name into base name and label block
// (including braces), e.g. `a{x="1"}` → (`a`, `{x="1"}`).
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// lookup returns the metric registered under name, creating it with mk on
// first use. A type clash (same name registered as a different kind) panics:
// it is a programming error in the instrumentation, not a runtime condition.
func (r *Registry) lookup(name string, mk func() metric) metric {
	r.mu.RLock()
	m := r.metrics[name]
	r.mu.RUnlock()
	if m != nil {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m = r.metrics[name]; m == nil {
		m = mk()
		r.metrics[name] = m
	}
	return m
}

// Counter returns the named monotonically increasing counter, registering it
// on first use.
func (r *Registry) Counter(name string) *Counter {
	m := r.lookup(name, func() metric { return new(Counter) })
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("telemetry: %q already registered as %s", name, m.promType()))
	}
	return c
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	m := r.lookup(name, func() metric { return new(Gauge) })
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("telemetry: %q already registered as %s", name, m.promType()))
	}
	return g
}

// Histogram returns the named fixed-bucket histogram, registering it with
// the given upper bounds (ascending; an implicit +Inf bucket is added) on
// first use. Later calls may pass nil buckets to reuse the registered ones.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	m := r.lookup(name, func() metric { return newHistogram(buckets) })
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("telemetry: %q already registered as %s", name, m.promType()))
	}
	return h
}

// Counter is a monotonically increasing counter. A nil *Counter is valid
// and inert, so hot loops can hold a handle that is nil when metrics are
// off and tick it unconditionally.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by delta (delta must be non-negative).
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; a nil counter reads 0, matching the
// inert-nil contract of Add and Inc.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) promType() string { return "counter" }
func (c *Counter) writeProm(w io.Writer, base, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", base, labels, c.Value())
}
func (c *Counter) snapshotValue() any { return c.Value() }

// Gauge is a settable instantaneous value.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) promType() string { return "gauge" }
func (g *Gauge) writeProm(w io.Writer, base, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", base, labels, formatFloat(g.Value()))
}
func (g *Gauge) snapshotValue() any { return g.Value() }

// DurationBuckets are the default histogram bounds for stage and estimate
// durations, in seconds: 1 ms … 100 s on a 1-2.5-5 ladder.
var DurationBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

// Histogram is a fixed-bucket histogram with cumulative Prometheus
// semantics: bucket i counts observations ≤ Buckets[i], with an implicit
// +Inf bucket at the end. Each bucket can additionally carry one exemplar —
// the trace ID of the most recent observation that landed in it — linking a
// latency spike on /metrics to a recorded trace in the flight recorder.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is +Inf
	sumBits atomic.Uint64
	count   atomic.Int64

	exMu      sync.Mutex
	exemplars []Exemplar // lazily sized len(counts); zero TraceID = none
}

// Exemplar is one bucket's trace-ID exemplar: the sample value and the trace
// that produced it.
type Exemplar struct {
	TraceID string
	Value   float64
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("telemetry: histogram bounds not ascending: %v", bounds))
		}
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// ObserveEx records one sample and, when traceID is non-empty, stores it as
// the landing bucket's exemplar (last writer wins).
func (h *Histogram) ObserveEx(v float64, traceID string) {
	// Bucket i spans (bounds[i-1], bounds[i]]; SearchFloat64s returns the
	// first index whose bound is ≥ v, which is exactly that bucket, and
	// len(bounds) — the +Inf bucket — when v exceeds every bound.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	if traceID != "" {
		h.exMu.Lock()
		if h.exemplars == nil {
			h.exemplars = make([]Exemplar, len(h.counts))
		}
		h.exemplars[i] = Exemplar{TraceID: traceID, Value: v}
		h.exMu.Unlock()
	}
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Exemplars returns the per-bucket exemplars (last entry is the +Inf
// bucket); entries with an empty TraceID have none. Returns nil when no
// exemplar was ever recorded.
func (h *Histogram) Exemplars() []Exemplar {
	h.exMu.Lock()
	defer h.exMu.Unlock()
	if h.exemplars == nil {
		return nil
	}
	return append([]Exemplar(nil), h.exemplars...)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// BucketCounts returns the per-bucket (non-cumulative) counts, the last
// entry being the +Inf overflow bucket.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

func (h *Histogram) promType() string { return "histogram" }
func (h *Histogram) writeProm(w io.Writer, base, labels string) {
	ex := h.Exemplars()
	// exSuffix renders bucket i's exemplar in OpenMetrics syntax
	// (` # {trace_id="..."} value`), or nothing when the bucket has none.
	exSuffix := func(i int) string {
		if ex == nil || ex[i].TraceID == "" {
			return ""
		}
		return fmt.Sprintf(` # {trace_id="%s"} %s`, escapeLabel(ex[i].TraceID), formatFloat(ex[i].Value))
	}
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d%s\n", base, Label(labels, "le", formatFloat(bound)), cum, exSuffix(i))
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d%s\n", base, Label(labels, "le", "+Inf"), cum, exSuffix(len(h.bounds)))
	fmt.Fprintf(w, "%s_sum%s %s\n", base, labels, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", base, labels, h.Count())
}
func (h *Histogram) snapshotValue() any {
	return map[string]any{"count": h.Count(), "sum": h.Sum(), "buckets": h.BucketCounts()}
}

// formatFloat renders a float the way the Prometheus text format expects.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format, sorted by name with one TYPE header per metric family.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.RLock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	snapshot := make(map[string]metric, len(r.metrics))
	for name, m := range r.metrics {
		snapshot[name] = m
	}
	r.mu.RUnlock()
	sort.Strings(names)
	lastBase := ""
	for _, name := range names {
		base, labels := splitName(name)
		m := snapshot[name]
		if base != lastBase {
			fmt.Fprintf(w, "# TYPE %s %s\n", base, m.promType())
			lastBase = base
		}
		m.writeProm(w, base, labels)
	}
}

// Snapshot returns a plain map of every metric's current value, keyed by
// full metric name — the expvar / JSON-report view of the registry.
func (r *Registry) Snapshot() map[string]any {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]any, len(r.metrics))
	for name, m := range r.metrics {
		out[name] = m.snapshotValue()
	}
	return out
}
