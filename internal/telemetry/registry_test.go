package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	// The registry and its counters must be safe under concurrent lookup
	// and increment (this test is the -race probe for the metrics path).
	r := NewRegistry()
	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Counter("c").Inc()
				r.Histogram("h", DurationBuckets).ObserveEx(0.003, "")
				r.Gauge("g").Set(goroutines * perG)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := r.Histogram("h", nil).Count(); got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
	if got := r.Gauge("g").Value(); got != goroutines*perG {
		t.Errorf("gauge = %g, want %d", got, goroutines*perG)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	// Prometheus ≤ semantics: a sample exactly on a bound lands in that
	// bound's bucket; anything beyond the last bound lands in +Inf.
	r := NewRegistry()
	h := r.Histogram("edges", []float64{1, 2.5})
	for _, v := range []float64{0.5, 1.0, 1.0001, 2.5, 2.6, 1e9} {
		h.ObserveEx(v, "")
	}
	want := []int64{2, 2, 2} // (≤1): 0.5, 1 — (≤2.5): 1.0001, 2.5 — +Inf: 2.6, 1e9
	got := h.BucketCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if sum := h.Sum(); sum < 1e9 {
		t.Errorf("sum = %g, want ≥ 1e9", sum)
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("non-ascending bounds accepted")
		}
	}()
	NewRegistry().Histogram("bad", []float64{2, 1})
}

func TestKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Errorf("gauge lookup of a counter name did not panic")
		}
	}()
	r.Gauge("x")
}

func TestLabel(t *testing.T) {
	cases := []struct{ name, key, value, want string }{
		{"a", "m", "linear", `a{m="linear"}`},
		{`a{x="1"}`, "y", "2", `a{x="1",y="2"}`},
		{"a", "v", `q"u\o` + "\n", `a{v="q\"u\\o\n"}`},
	}
	for _, c := range cases {
		if got := Label(c.name, c.key, c.value); got != c.want {
			t.Errorf("Label(%q, %q, %q) = %q, want %q", c.name, c.key, c.value, got, c.want)
		}
	}
}

func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter(Label("degradations_total", "reason", "timeout")).Add(2)
	r.Gauge("g").Set(1.5)
	h := r.Histogram(Label("h", "stage", "x"), []float64{1, 2})
	h.ObserveEx(0.5, "")
	h.ObserveEx(1, "")
	h.ObserveEx(3, "")
	var sb strings.Builder
	r.WritePrometheus(&sb)
	want := `# TYPE degradations_total counter
degradations_total{reason="timeout"} 2
# TYPE g gauge
g 1.5
# TYPE h histogram
h_bucket{stage="x",le="1"} 2
h_bucket{stage="x",le="2"} 2
h_bucket{stage="x",le="+Inf"} 3
h_sum{stage="x"} 4.5
h_count{stage="x"} 3
`
	if got := sb.String(); got != want {
		t.Errorf("Prometheus text:\n%s\nwant:\n%s", got, want)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(7)
	r.Gauge("g").Set(0.25)
	r.Histogram("h", []float64{1}).ObserveEx(0.5, "")
	snap := r.Snapshot()
	if snap["c"] != int64(7) {
		t.Errorf("snapshot counter = %v", snap["c"])
	}
	if snap["g"] != 0.25 {
		t.Errorf("snapshot gauge = %v", snap["g"])
	}
	hv, ok := snap["h"].(map[string]any)
	if !ok || hv["count"] != int64(1) {
		t.Errorf("snapshot histogram = %v", snap["h"])
	}
}

func TestPackageHelpersDisabledAndEnabled(t *testing.T) {
	resetForTest()
	defer resetForTest()
	// Disabled: the helpers must be inert, not panic or register anything.
	Inc("helper_c")
	SetGauge("helper_g", 1)
	ObserveSeconds("helper_h", 0.1)
	if Default() != nil || MetricsOn() {
		t.Fatalf("helpers enabled metrics as a side effect")
	}
	r := Enable()
	if r == nil || Default() != r || !MetricsOn() {
		t.Fatalf("Enable did not install the default registry")
	}
	if again := Enable(); again != r {
		t.Errorf("second Enable returned a different registry")
	}
	Inc("helper_c")
	Add("helper_c", 2)
	SetGauge("helper_g", 4)
	ObserveSeconds("helper_h", 0.1)
	if got := r.Counter("helper_c").Value(); got != 3 {
		t.Errorf("helper counter = %d, want 3", got)
	}
	if got := r.Gauge("helper_g").Value(); got != 4 {
		t.Errorf("helper gauge = %g, want 4", got)
	}
	if got := r.Histogram("helper_h", nil).Count(); got != 1 {
		t.Errorf("helper histogram count = %d, want 1", got)
	}
}

func TestNilCounterHandle(t *testing.T) {
	// Hot loops hold a possibly-nil *Counter and tick unconditionally —
	// exactly what chipmc does with its trials counter when no registry is
	// installed. Every method must be inert on the nil receiver, including
	// the read side.
	var c *Counter
	c.Inc()
	c.Add(5)
	if got := c.Value(); got != 0 {
		t.Errorf("nil counter Value() = %d, want 0", got)
	}
}

// The chipmc trial loop calls trialsC.Inc() unconditionally on a handle that
// is nil whenever telemetry is disabled; this pins the exact pattern.
func TestNilCounterHotLoopPattern(t *testing.T) {
	var trialsC *Counter
	if r := Default(); r != nil {
		t.Skip("a default registry is installed; the nil path is not reachable")
	}
	for i := 0; i < 1000; i++ {
		trialsC.Inc()
	}
	if trialsC.Value() != 0 {
		t.Error("nil counter accumulated")
	}
	allocs := testing.AllocsPerRun(100, func() { trialsC.Inc() })
	if allocs != 0 {
		t.Errorf("nil Inc allocates %.1f times", allocs)
	}
}

// TestTileMetricsPrometheusGolden pins the Prometheus exposition of the
// tiled-pipeline metrics: the chipmc_tiles_total counter and the
// tile_duration_seconds histogram.
func TestTileMetricsPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("chipmc_tiles_total").Add(9)
	h := r.Histogram("tile_duration_seconds", []float64{0.001, 0.01})
	h.ObserveEx(0.0005, "")
	h.ObserveEx(0.002, "")
	var sb strings.Builder
	r.WritePrometheus(&sb)
	want := `# TYPE chipmc_tiles_total counter
chipmc_tiles_total 9
# TYPE tile_duration_seconds histogram
tile_duration_seconds_bucket{le="0.001"} 1
tile_duration_seconds_bucket{le="0.01"} 2
tile_duration_seconds_bucket{le="+Inf"} 2
tile_duration_seconds_sum 0.0025
tile_duration_seconds_count 2
`
	if got := sb.String(); got != want {
		t.Errorf("Prometheus text:\n%s\nwant:\n%s", got, want)
	}
}
