package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// RecorderConfig bounds the flight recorder's two retention rings.
type RecorderConfig struct {
	// Recent is how many completed traces the rolling ring keeps,
	// regardless of outcome. Default 64.
	Recent int
	// Notable is how many slow/degraded/failed traces the notable ring
	// keeps; these survive the churn of the recent ring. Default 256.
	Notable int
	// SlowThreshold marks a trace notable by duration alone. Default 1s.
	SlowThreshold time.Duration
}

func (c RecorderConfig) withDefaults() RecorderConfig {
	if c.Recent <= 0 {
		c.Recent = 64
	}
	if c.Notable <= 0 {
		c.Notable = 256
	}
	if c.SlowThreshold <= 0 {
		c.SlowThreshold = time.Second
	}
	return c
}

// FlightRecorder is a bounded in-memory ring of completed traces: the last
// Recent traces of any kind, plus (in a separate ring, so they outlive
// recent churn) every recent trace that was slow, degraded, or failed.
// It backs GET /debug/traces and /debug/traces/{id}.
type FlightRecorder struct {
	mu      sync.Mutex
	cfg     RecorderConfig
	recent  []TraceSnapshot
	notable []TraceSnapshot
}

// NewFlightRecorder returns an empty recorder with cfg's bounds (zero
// fields take defaults).
func NewFlightRecorder(cfg RecorderConfig) *FlightRecorder {
	return &FlightRecorder{cfg: cfg.withDefaults()}
}

// notableSnap reports whether snap belongs in the notable ring: any
// non-"ok" outcome (degraded, error, …) or a duration past SlowThreshold.
func (f *FlightRecorder) notableSnap(snap TraceSnapshot) bool {
	if snap.Outcome != "" && snap.Outcome != "ok" {
		return true
	}
	return snap.DurS >= f.cfg.SlowThreshold.Seconds()
}

// Record retains a completed trace's snapshot, evicting the oldest entry of
// whichever ring overflows.
func (f *FlightRecorder) Record(snap TraceSnapshot) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.recent = appendRing(f.recent, snap, f.cfg.Recent)
	if f.notableSnap(snap) {
		f.notable = appendRing(f.notable, snap, f.cfg.Notable)
	}
}

// appendRing appends snap, dropping the front when the ring exceeds max.
func appendRing(ring []TraceSnapshot, snap TraceSnapshot, max int) []TraceSnapshot {
	ring = append(ring, snap)
	if len(ring) > max {
		// Shift rather than reslice so the backing array stays bounded.
		copy(ring, ring[1:])
		ring = ring[:max]
	}
	return ring
}

// Get returns the retained trace with the given ID. The notable ring is
// checked first: a degraded trace stays retrievable after the recent ring
// has churned past it.
func (f *FlightRecorder) Get(id string) (TraceSnapshot, bool) {
	if f == nil {
		return TraceSnapshot{}, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, ring := range [2][]TraceSnapshot{f.notable, f.recent} {
		for i := len(ring) - 1; i >= 0; i-- {
			if ring[i].ID == id {
				return ring[i], true
			}
		}
	}
	return TraceSnapshot{}, false
}

// TraceSummary is one row of the /debug/traces listing.
type TraceSummary struct {
	ID      string    `json:"id"`
	Start   time.Time `json:"start"`
	DurS    float64   `json:"duration_s"`
	Outcome string    `json:"outcome,omitempty"`
	Root    string    `json:"root,omitempty"`
	Spans   int       `json:"spans"`
	Notable bool      `json:"notable,omitempty"`
}

// List returns summaries of every retained trace, newest first, notable
// entries not duplicated across the two rings.
func (f *FlightRecorder) List() []TraceSummary {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	seen := make(map[string]bool, len(f.notable)+len(f.recent))
	out := make([]TraceSummary, 0, len(f.notable)+len(f.recent))
	add := func(ring []TraceSnapshot, notable bool) {
		for i := len(ring) - 1; i >= 0; i-- {
			snap := ring[i]
			if seen[snap.ID] {
				continue
			}
			seen[snap.ID] = true
			out = append(out, TraceSummary{
				ID: snap.ID, Start: snap.Start, DurS: snap.DurS,
				Outcome: snap.Outcome, Root: snap.Root(),
				Spans: len(snap.Spans), Notable: notable || f.notableSnap(snap),
			})
		}
	}
	add(f.recent, false)
	add(f.notable, true)
	return out
}

// recorder is the process-wide default flight recorder; nil until
// EnableFlightRecorder.
var recorder atomic.Pointer[FlightRecorder]

// Recorder returns the installed flight recorder, or nil.
func Recorder() *FlightRecorder { return recorder.Load() }

// EnableFlightRecorder installs (once) and returns the default flight
// recorder with default bounds. Safe to call repeatedly.
func EnableFlightRecorder() *FlightRecorder {
	if f := recorder.Load(); f != nil {
		return f
	}
	f := NewFlightRecorder(RecorderConfig{})
	recorder.CompareAndSwap(nil, f)
	return recorder.Load()
}

// chromeEvent is one Chrome trace-event ("X" = complete event with
// duration); timestamps are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome renders the trace snapshot in the Chrome trace-event JSON
// format (the array form), loadable in chrome://tracing or Perfetto. Each
// span becomes one complete ("X") event; span and trace attributes land in
// the event args.
func WriteChrome(w io.Writer, snap TraceSnapshot) error {
	events := make([]chromeEvent, 0, len(snap.Spans)+1)
	rootArgs := map[string]any{"trace_id": snap.ID}
	if snap.Outcome != "" {
		rootArgs["outcome"] = snap.Outcome
	}
	for _, a := range snap.Attrs {
		rootArgs[a.Key] = a.Value
	}
	events = append(events, chromeEvent{
		Name: "trace " + snap.ID, Ph: "X", PID: 1, TID: 1,
		Ts: 0, Dur: snap.DurS * 1e6, Args: rootArgs,
	})
	for _, sp := range snap.Spans {
		var args map[string]any
		if len(sp.Attrs) > 0 {
			args = make(map[string]any, len(sp.Attrs))
			for _, a := range sp.Attrs {
				args[a.Key] = a.Value
			}
		}
		events = append(events, chromeEvent{
			Name: sp.Stage, Ph: "X", PID: 1, TID: 1,
			Ts: sp.StartS * 1e6, Dur: sp.DurS * 1e6, Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}
