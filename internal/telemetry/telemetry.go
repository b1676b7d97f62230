// Package telemetry is the zero-dependency observability layer of the
// leakage estimator: a concurrent metrics registry (atomic counters, gauges
// and fixed-bucket histograms with Prometheus-text and expvar exposition),
// lightweight stage spans that build a per-run timing breakdown, a
// context-threaded progress reporter for long loops, and structured logging
// via log/slog.
//
// The layer follows the same contract as internal/fault: when nothing is
// registered — no default registry, no logger, no trace in the context —
// every hook degrades to a single atomic load (or a nil check) and the
// instrumented hot paths run at their uninstrumented speed. Instrumentation
// therefore lives at stage granularity (one span per pipeline stage, one
// progress tick per existing cancellation checkpoint), never per inner-loop
// iteration.
package telemetry

import (
	"log/slog"
	"sync/atomic"
)

// def is the process-wide default registry; nil until Enable.
// sinkOn mirrors "def != nil" so hot paths pay one atomic bool load.
var (
	def    atomic.Pointer[Registry]
	sinkOn atomic.Bool
)

// Default returns the installed metrics sink, or nil when metrics are off.
func Default() *Registry { return def.Load() }

// MetricsOn reports whether a metrics sink is installed — the fast-path
// gate instrumented code checks before building metric names.
func MetricsOn() bool { return sinkOn.Load() }

// Enable installs (once) and returns the default registry. Safe to call
// repeatedly; concurrent first calls race benignly toward one winner.
func Enable() *Registry {
	if r := def.Load(); r != nil {
		return r
	}
	r := NewRegistry()
	if def.CompareAndSwap(nil, r) {
		sinkOn.Store(true)
	}
	return def.Load()
}

// Inc adds 1 to the named counter on the default registry; no-op when
// metrics are disabled.
func Inc(name string) { Add(name, 1) }

// Add adds delta to the named counter on the default registry; no-op when
// metrics are disabled.
func Add(name string, delta int64) {
	if !sinkOn.Load() {
		return
	}
	if r := def.Load(); r != nil {
		r.Counter(name).Add(delta)
	}
}

// SetGauge sets the named gauge on the default registry; no-op when metrics
// are disabled.
func SetGauge(name string, v float64) {
	if !sinkOn.Load() {
		return
	}
	if r := def.Load(); r != nil {
		r.Gauge(name).Set(v)
	}
}

// ObserveSeconds records v into the named duration histogram (default
// duration buckets) on the default registry; no-op when metrics are
// disabled.
func ObserveSeconds(name string, v float64) { ObserveSecondsEx(name, v, "") }

// ObserveSecondsEx is ObserveSeconds carrying a trace-ID exemplar: the
// bucket the sample lands in remembers traceID, so the /metrics exposition
// links the latency spike to the recorded trace. Empty traceID records no
// exemplar. No-op when metrics are disabled.
func ObserveSecondsEx(name string, v float64, traceID string) {
	if !sinkOn.Load() {
		return
	}
	if r := def.Load(); r != nil {
		r.Histogram(name, DurationBuckets).ObserveEx(v, traceID)
	}
}

// logger is the process-wide structured logger; nil (the default) disables
// logging entirely.
var logger atomic.Pointer[slog.Logger]

// SetLogger installs the structured logger used by the estimation pipeline;
// nil disables logging (the zero-overhead default).
func SetLogger(l *slog.Logger) { logger.Store(l) }

// Nil-checked logging helpers. args are slog key/value pairs.

// Warn logs at Warn level when a logger is installed.
func Warn(msg string, args ...any) {
	if l := logger.Load(); l != nil {
		l.Warn(msg, args...)
	}
}

// Debug logs at Debug level when a logger is installed.
func Debug(msg string, args ...any) {
	if l := logger.Load(); l != nil {
		l.Debug(msg, args...)
	}
}
