package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"leakest"
	"leakest/internal/cells"
	"leakest/internal/charlib"
	"leakest/internal/lkerr"
	"leakest/internal/spatial"
	"leakest/internal/telemetry"
)

// c17 is the classic 6-gate ISCAS85 benchmark, small enough that even the
// O(n²) truth rung is instant.
const c17 = `# c17
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
`

// coreServer builds a test server seeded with the shared fast-test library
// so no characterization runs inside the test.
func coreServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	lib, err := charlib.SharedISCAS()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.cache.get(context.Background(), "library", processKey(spatial.Default90nm()),
		func() (any, error) { return lib, nil }); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.baseCancel)
	return s
}

// testHist returns a histogram request body over cells the shared library
// characterizes.
func testHist() map[string]float64 {
	return map[string]float64{"NAND2_X1": 3, "INV_X1": 2, "NOR2_X1": 1}
}

// do runs one request against the server's handler.
func do(t *testing.T, s *Server, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body == nil {
		rd = bytes.NewReader(nil)
	} else if raw, ok := body.(string); ok {
		rd = bytes.NewReader([]byte(raw))
	} else {
		js, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(js)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

func decodeResp(t *testing.T, rec *httptest.ResponseRecorder) *EstimateResponse {
	t.Helper()
	var resp EstimateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad response body %q: %v", rec.Body.String(), err)
	}
	return &resp
}

func histRequest(n int) map[string]any {
	return map[string]any{
		"design": map[string]any{"hist": testHist(), "n": n, "w_um": 1000.0, "h_um": 1000.0},
	}
}

func TestEstimateHistogram(t *testing.T) {
	s := coreServer(t, Config{})
	rec := do(t, s, "POST", "/v1/estimate", histRequest(500))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("X-Request-Id") == "" {
		t.Error("missing X-Request-Id header")
	}
	resp := decodeResp(t, rec)
	if resp.RequestID == "" {
		t.Error("missing request_id in body")
	}
	r := resp.Result
	if !(r.Mean > 0) || !(r.Std > 0) || math.IsInf(r.Mean, 0) || math.IsInf(r.Std, 0) {
		t.Fatalf("non-finite moments: mean=%v std=%v", r.Mean, r.Std)
	}
	if r.Method != "linear" {
		t.Errorf("method %q, want linear for a 500-gate auto request", r.Method)
	}
	if r.Degraded {
		t.Errorf("unloaded request degraded: %s", r.DegradeReason)
	}
	if resp.Admission.Level != "normal" || resp.Admission.BudgetImposed {
		t.Errorf("admission %+v, want normal with no budget", resp.Admission)
	}
	if resp.Conformance == nil || resp.Conformance.Status != "ok" {
		t.Errorf("conformance %+v, want ok", resp.Conformance)
	}
	if len(r.Timings) == 0 {
		t.Error("no stage timings in response")
	}
}

// TestConformanceReferencesIgnoreBudget: a budget that admits the linear
// rung still serves linear, and the σ cross-check must compare it against
// the real 2-D integral — were the request's budget left on the reference
// copy, the "integral" reference would be the linear rung itself and the
// deviation exactly zero.
func TestConformanceReferencesIgnoreBudget(t *testing.T) {
	s := coreServer(t, Config{})
	body := histRequest(500)
	body["budget"] = map[string]any{"max_pairs": 1}
	rec := do(t, s, "POST", "/v1/estimate", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeResp(t, rec)
	if resp.Result.Method != "linear" || resp.Result.Degraded {
		t.Fatalf("served %q (degraded %v), want undegraded linear", resp.Result.Method, resp.Result.Degraded)
	}
	c := resp.Conformance
	if c == nil || c.Reference != "naive-mean+integral-std" || !(c.StdRelDev > 0) {
		t.Errorf("conformance %+v, want a non-zero σ deviation from the integral", c)
	}
}

func TestEstimateBenchTruth(t *testing.T) {
	s := coreServer(t, Config{})
	rec := do(t, s, "POST", "/v1/estimate", map[string]any{"bench": c17, "truth": true})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeResp(t, rec)
	if resp.Result.Method != "true-n2" {
		t.Errorf("method %q, want true-n2", resp.Result.Method)
	}
	if !(resp.Result.Mean > 0 && resp.Result.Std > 0) {
		t.Fatalf("bad moments %+v", resp.Result)
	}
	if resp.Conformance == nil || resp.Conformance.Status != "ok" {
		t.Errorf("conformance %+v, want ok", resp.Conformance)
	}
}

func TestEstimateBenchMonteCarloAndEmbeddingCache(t *testing.T) {
	s := coreServer(t, Config{})
	body := map[string]any{"bench": c17, "mc_samples": 100, "sampler": "fft"}

	r := telemetry.Enable()
	missKey := telemetry.Label("server_cache_misses_total", "artifact", "embedding")
	hitKey := telemetry.Label("server_cache_hits_total", "artifact", "embedding")
	m0, h0 := r.Counter(missKey).Value(), r.Counter(hitKey).Value()

	for i := 0; i < 2; i++ {
		rec := do(t, s, "POST", "/v1/estimate", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("run %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		resp := decodeResp(t, rec)
		if resp.MonteCarlo == nil || resp.MonteCarlo.Samples != 100 {
			t.Fatalf("run %d: monte carlo %+v", i, resp.MonteCarlo)
		}
		if !(resp.MonteCarlo.Mean > 0) {
			t.Fatalf("run %d: bad MC mean", i)
		}
	}
	if d := r.Counter(missKey).Value() - m0; d != 1 {
		t.Errorf("embedding misses += %d, want 1 (one build)", d)
	}
	if d := r.Counter(hitKey).Value() - h0; d != 1 {
		t.Errorf("embedding hits += %d, want 1 (second request reuses)", d)
	}
}

// TestMonteCarloUsesResolvedSignalProb: with signal_prob omitted, the Monte
// Carlo runs at the leakage-maximizing p* the estimate used, so its mean is
// bitwise the library's MonteCarloContext at p* with the same seed.
func TestMonteCarloUsesResolvedSignalProb(t *testing.T) {
	s := coreServer(t, Config{})
	rec := do(t, s, "POST", "/v1/estimate", map[string]any{"bench": c17, "mc_samples": 100})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeResp(t, rec)
	if resp.MonteCarlo == nil {
		t.Fatal("no monte_carlo block")
	}
	lib, err := charlib.SharedISCAS()
	if err != nil {
		t.Fatal(err)
	}
	est, err := leakest.NewEstimator(lib, nil)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := leakest.ReadBench(strings.NewReader(c17), "design")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := leakest.AutoPlace(nl, 1)
	if err != nil {
		t.Fatal(err)
	}
	design, err := est.ExtractDesign(nl, pl, 0)
	if err != nil {
		t.Fatal(err)
	}
	pStar, err := est.MaxLeakageSignalProb(design.Hist)
	if err != nil {
		t.Fatal(err)
	}
	if pStar == 0.5 {
		t.Fatal("p* = 0.5 cannot tell the resolved probability from the default")
	}
	want, err := est.MonteCarloContext(context.Background(), nl, pl, pStar, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(resp.MonteCarlo.Mean) != math.Float64bits(want.Mean) {
		t.Errorf("server MC mean %v, MonteCarloContext at p*=%v: %v", resp.MonteCarlo.Mean, pStar, want.Mean)
	}
}

// TestMonteCarloRefusedBeforeEmbedding: a Monte-Carlo request chipmc
// refuses fails with its typed error before the FFT embedding artifact is
// built or cached — the route is planned (and validated) first.
func TestMonteCarloRefusedBeforeEmbedding(t *testing.T) {
	s := coreServer(t, Config{})
	r := telemetry.Enable()
	missKey := telemetry.Label("server_cache_misses_total", "artifact", "embedding")
	m0 := r.Counter(missKey).Value()
	rec := do(t, s, "POST", "/v1/estimate", map[string]any{"bench": c17, "mc_samples": 5, "sampler": "fft"})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (body %s)", rec.Code, rec.Body.String())
	}
	var eb ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Code != lkerr.InvalidInput.String() {
		t.Errorf("error envelope %s, want code %s", rec.Body.String(), lkerr.InvalidInput)
	}
	if d := r.Counter(missKey).Value() - m0; d != 0 {
		t.Errorf("embedding misses += %d for a refused run, want 0 (no embedding built)", d)
	}
}

// TestLegacyMCBatchIgnored: the retired mc_batch field still decodes (the
// request decoder ignores unknown fields) and changes nothing.
func TestLegacyMCBatchIgnored(t *testing.T) {
	s := coreServer(t, Config{})
	body := map[string]any{"bench": c17, "mc_samples": 20, "sampler": "qmc"}
	want := decodeResp(t, do(t, s, "POST", "/v1/estimate", body))
	body["mc_batch"] = 16
	rec := do(t, s, "POST", "/v1/estimate", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	got := decodeResp(t, rec)
	if got.MonteCarlo == nil || want.MonteCarlo == nil || *got.MonteCarlo != *want.MonteCarlo {
		t.Errorf("mc_batch changed the Monte Carlo: %+v vs %+v", got.MonteCarlo, want.MonteCarlo)
	}
}

func TestEstimateRejectsBadRequests(t *testing.T) {
	s := coreServer(t, Config{})
	cases := []struct {
		name string
		body any
	}{
		{"empty", map[string]any{}},
		{"both shapes", map[string]any{"bench": c17, "design": map[string]any{"hist": testHist(), "n": 10, "w_um": 1.0, "h_um": 1.0}}},
		{"bad method", map[string]any{"bench": c17, "method": "quantum"}},
		{"bad sampler", map[string]any{"bench": c17, "sampler": "warp"}},
		{"truth without bench", map[string]any{"design": map[string]any{"hist": testHist(), "n": 10, "w_um": 1.0, "h_um": 1.0}, "truth": true}},
		{"signal prob out of range", map[string]any{"bench": c17, "signal_prob": 1.5}},
		{"not json", "]["},
	}
	for _, tc := range cases {
		rec := do(t, s, "POST", "/v1/estimate", tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, rec.Code, rec.Body.String())
		}
		var eb ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Code == "" {
			t.Errorf("%s: error envelope missing: %s", tc.name, rec.Body.String())
		}
	}
}

func TestLibraryCacheSingleflightAcrossRequests(t *testing.T) {
	// Fresh unseeded server: the first wave of requests must characterize
	// the library exactly once, with every other request riding the same
	// fill.
	s := New(Config{Cells: cells.CoreSubset(), CharMCSamples: 300})
	t.Cleanup(s.baseCancel)

	r := telemetry.Enable()
	missKey := telemetry.Label("server_cache_misses_total", "artifact", "library")
	hitKey := telemetry.Label("server_cache_hits_total", "artifact", "library")
	m0, h0 := r.Counter(missKey).Value(), r.Counter(hitKey).Value()

	const waves = 4
	codes := make(chan int, waves)
	for i := 0; i < waves; i++ {
		go func() {
			rec := do(t, s, "POST", "/v1/estimate", histRequest(200))
			codes <- rec.Code
		}()
	}
	for i := 0; i < waves; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("concurrent request returned %d", code)
		}
	}
	if d := r.Counter(missKey).Value() - m0; d != 1 {
		t.Errorf("library characterized %d times for %d concurrent requests, want 1", d, waves)
	}
	if d := r.Counter(hitKey).Value() - h0; d != waves-1 {
		t.Errorf("library cache hits += %d, want %d", d, waves-1)
	}
}

func TestHealthz(t *testing.T) {
	s := coreServer(t, Config{})
	if rec := do(t, s, "GET", "/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("healthz %d", rec.Code)
	}
}

// TestPrometheusGoldenServerSeries drives every metric-producing path with
// a deterministic stub executor, then asserts the server's series on
// /metrics — names, label sets, and TYPE headers.
func TestPrometheusGoldenServerSeries(t *testing.T) {
	s := coreServer(t, Config{Workers: 1, QueueCap: 1})
	block := make(chan struct{})
	s.exec = func(ctx context.Context, req *EstimateRequest, id string, lvl loadLevel, depth int) (*EstimateResponse, error) {
		<-block
		return &EstimateResponse{Admission: AdmissionBody{Level: lvl.String(), QueueDepth: depth}}, nil
	}

	done := make(chan int, 2)
	post := func() {
		rec := do(t, s, "POST", "/v1/estimate", histRequest(10))
		done <- rec.Code
	}
	go post() // occupies the single worker
	waitFor(t, "worker busy", func() bool { return len(s.adm.sem) == 1 })
	go post() // queues (depth 1 = cap)
	waitFor(t, "one waiter", func() bool { return s.adm.queueDepth() == 1 })
	rec := do(t, s, "POST", "/v1/estimate", histRequest(10)) // shed
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("third request: status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	close(block)
	for i := 0; i < 2; i++ {
		if code := <-done; code != http.StatusOK {
			t.Fatalf("blocked request finished with %d", code)
		}
	}

	mrec := do(t, s, "GET", "/metrics", nil)
	if mrec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", mrec.Code)
	}
	body := mrec.Body.String()
	for _, want := range []string{
		`# TYPE server_requests_total counter`,
		`server_requests_total{code="200"}`,
		`server_requests_total{code="429"}`,
		`# TYPE server_queue_depth gauge`,
		"server_queue_depth 0\n",
		`# TYPE server_shed_total counter`,
		`server_shed_total`,
		`# TYPE server_cache_hits_total counter`,
		`server_cache_hits_total{artifact=`,
		`# TYPE server_request_duration_seconds histogram`,
		`server_request_duration_seconds_bucket`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
