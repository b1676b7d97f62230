package leakest

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"leakest/internal/cells"
	"leakest/internal/charlib"
)

// progressRecorder collects every report and indexes them by stage.
type progressRecorder struct {
	reports []Progress
}

func (r *progressRecorder) fn(p Progress) { r.reports = append(r.reports, p) }

// ctx returns a context delivering every checkpoint tick to the recorder.
func (r *progressRecorder) ctx() context.Context {
	return WithProgressInterval(context.Background(), r.fn, 0)
}

// finalFor returns the stage's completion report.
func (r *progressRecorder) finalFor(t *testing.T, stage string) Progress {
	t.Helper()
	for _, p := range r.reports {
		if p.Stage == stage && p.Final {
			return p
		}
	}
	t.Fatalf("no final report for stage %q in %d reports", stage, len(r.reports))
	return Progress{}
}

// countFor returns how many reports the stage delivered.
func (r *progressRecorder) countFor(stage string) int {
	n := 0
	for _, p := range r.reports {
		if p.Stage == stage {
			n++
		}
	}
	return n
}

func TestProgressFromCharacterization(t *testing.T) {
	var rec progressRecorder
	if _, err := CharacterizeContext(rec.ctx(), cells.CoreSubset(), CharConfig{
		Process: DefaultProcess(), MCSamples: 500, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	final := rec.finalFor(t, "charlib.characterize")
	if final.Done != final.Total || final.Total <= 0 {
		t.Errorf("final report %+v: Done != Total", final)
	}
	// One report per state plus the final one: strictly more than just the
	// completion report must have been delivered at interval 0.
	if n := rec.countFor("charlib.characterize"); n < 2 {
		t.Errorf("only %d characterization reports", n)
	}
}

func TestProgressFromLinearEstimator(t *testing.T) {
	est := coreEstimator(t)
	var rec progressRecorder
	design := Design{Hist: coreHist(t), N: 2500, W: 100, H: 100, SignalProb: 0.5}
	if _, err := est.EstimateContext(rec.ctx(), design, Linear); err != nil {
		t.Fatal(err)
	}
	final := rec.finalFor(t, "estimate.linear")
	if final.Done != final.Total || final.Total <= 0 {
		t.Errorf("final report %+v: Done != Total", final)
	}
}

func TestProgressFromTruthAndMonteCarlo(t *testing.T) {
	lib, err := charlib.SharedISCAS()
	if err != nil {
		t.Fatal(err)
	}
	est, err := NewEstimator(lib, nil)
	if err != nil {
		t.Fatal(err)
	}
	nl, pl, err := ISCASCircuit(lib, "c432", 3)
	if err != nil {
		t.Fatal(err)
	}
	var rec progressRecorder
	if _, err := est.TrueLeakageContext(rec.ctx(), nl, pl, 0.5); err != nil {
		t.Fatal(err)
	}
	final := rec.finalFor(t, "core.truth")
	if final.Done != final.Total || final.Total != int64(len(nl.Gates)) {
		t.Errorf("truth final report %+v, want total %d", final, len(nl.Gates))
	}

	rec = progressRecorder{}
	if _, err := est.MonteCarloContext(rec.ctx(), nl, pl, 0.5, 25, 1); err != nil {
		t.Fatal(err)
	}
	final = rec.finalFor(t, "chipmc.trials")
	if final.Done != 25 || final.Total != 25 {
		t.Errorf("chipmc final report %+v, want 25/25", final)
	}
}

func TestResultCarriesStageTimings(t *testing.T) {
	est := coreEstimator(t)
	design := Design{Hist: coreHist(t), N: 2500, W: 100, H: 100, SignalProb: 0.5}
	res, err := est.EstimateContext(context.Background(), design, Linear)
	if err != nil {
		t.Fatal(err)
	}
	stages := map[string]bool{}
	for _, s := range res.Timings {
		if s.Duration < 0 {
			t.Errorf("negative duration in %+v", s)
		}
		stages[s.Stage] = true
	}
	if !stages["core.model"] || !stages["estimate.linear"] {
		t.Errorf("Timings missing expected stages: %+v", res.Timings)
	}
}

func TestDegradationCountedInMetrics(t *testing.T) {
	key := `degradations_total{reason="max-gates"}`
	before, _ := MetricsSnapshot()[key].(int64)
	EnableMetrics()
	est := coreEstimator(t)
	design := Design{Hist: coreHist(t), N: 2500, W: 100, H: 100, SignalProb: 0.5}
	res, err := budgeted(est, EstimateBudget{MaxGates: 100}).EstimateContext(context.Background(), design, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatalf("MaxGates=100 on a 2500-gate design did not degrade: %+v", res)
	}
	after, _ := MetricsSnapshot()[key].(int64)
	if after != before+1 {
		t.Errorf("%s went %d → %d, want +1", key, before, after)
	}
	if len(res.Timings) == 0 {
		t.Errorf("degraded result has no stage timings")
	}
}

func TestWriteMetricsPrometheusText(t *testing.T) {
	EnableMetrics()
	est := coreEstimator(t)
	design := Design{Hist: coreHist(t), N: 2500, W: 100, H: 100, SignalProb: 0.5}
	if _, err := est.EstimateContext(context.Background(), design, Linear); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	WriteMetrics(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE estimate_duration_seconds histogram",
		`estimate_duration_seconds_count{method="linear"}`,
		`estimate_stage_duration_seconds_bucket{stage="core.model",le="+Inf"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus text missing %q:\n%s", want, out)
		}
	}
}

func TestTelemetryHandlerEndpoints(t *testing.T) {
	srv := httptest.NewServer(TelemetryHandler())
	defer srv.Close()
	est := coreEstimator(t)
	design := Design{Hist: coreHist(t), N: 2500, W: 100, H: 100, SignalProb: 0.5}
	if _, err := est.EstimateContext(context.Background(), design, Linear); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{
		"/metrics":      "estimate_stage_duration_seconds",
		"/debug/vars":   "leakest_metrics",
		"/debug/pprof/": "profile",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body := make([]byte, 1<<16)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(string(body[:n]), want) {
			t.Errorf("GET %s: body missing %q", path, want)
		}
	}
}
