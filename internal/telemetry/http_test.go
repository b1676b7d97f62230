package telemetry

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestPromHandlerServesMetrics(t *testing.T) {
	r := NewRegistry()
	r.Counter(`requests_total{code="200"}`).Add(3)
	r.Gauge("pool_size").Set(4)

	for _, method := range []string{http.MethodGet, http.MethodHead} {
		rec := httptest.NewRecorder()
		PromHandler(r).ServeHTTP(rec, httptest.NewRequest(method, "/metrics", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d, want 200", method, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("%s: content type %q, want text/plain exposition", method, ct)
		}
	}
	rec := httptest.NewRecorder()
	PromHandler(r).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`requests_total{code="200"} 3`,
		"# TYPE requests_total counter",
		"pool_size 4",
		"# TYPE pool_size gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
}

func TestPromHandlerRejectsWrites(t *testing.T) {
	r := NewRegistry()
	for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete, http.MethodPatch} {
		rec := httptest.NewRecorder()
		PromHandler(r).ServeHTTP(rec, httptest.NewRequest(method, "/metrics", nil))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s: status %d, want 405", method, rec.Code)
		}
		if allow := rec.Header().Get("Allow"); allow != "GET, HEAD" {
			t.Errorf("%s: Allow header %q, want \"GET, HEAD\"", method, allow)
		}
	}
}

// TestPromHandlerDuringConcurrentWrites scrapes the endpoint while other
// goroutines hammer the same metrics: the exposition and the snapshot must
// stay internally consistent (no torn reads, no panics) under -race.
func TestPromHandlerDuringConcurrentWrites(t *testing.T) {
	r := NewRegistry()
	const writers = 4
	const perWriter = 500
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWriter; i++ {
				r.Counter("writes_total").Inc()
				r.Gauge("level").Set(float64(i))
				r.Counter(fmt.Sprintf(`sharded_total{w="%d"}`, w)).Inc()
				r.Histogram("lat_seconds", nil).ObserveEx(float64(i)*1e-6, "")
			}
		}(w)
	}
	scrape := func() string {
		rec := httptest.NewRecorder()
		PromHandler(r).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if rec.Code != http.StatusOK {
			t.Errorf("scrape status %d", rec.Code)
		}
		return rec.Body.String()
	}
	close(start)
	for i := 0; i < 50; i++ {
		scrape()
		r.Snapshot()
	}
	wg.Wait()
	final := scrape()
	want := fmt.Sprintf("writes_total %d", writers*perWriter)
	if !strings.Contains(final, want) {
		t.Errorf("final exposition missing %q:\n%s", want, final)
	}
	snap := r.Snapshot()
	if v, _ := snap["writes_total"].(int64); v != writers*perWriter {
		t.Errorf("snapshot writes_total = %v, want %d", snap["writes_total"], writers*perWriter)
	}
}

func TestNewMuxRoutes(t *testing.T) {
	r := NewRegistry()
	r.Counter("muxed_total").Inc()
	mux := NewMux(r)
	cases := []struct {
		path string
		want int
	}{
		{"/metrics", http.StatusOK},
		{"/debug/vars", http.StatusOK},
		{"/debug/pprof/", http.StatusOK},
		{"/debug/pprof/cmdline", http.StatusOK},
		{"/nope", http.StatusNotFound},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, c.path, nil))
		if rec.Code != c.want {
			t.Errorf("GET %s: status %d, want %d", c.path, rec.Code, c.want)
		}
	}
	// The expvar dump must carry the published registry snapshot.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/vars", nil))
	if !strings.Contains(rec.Body.String(), "leakest_metrics") {
		t.Error("/debug/vars does not expose leakest_metrics")
	}
}
