package server

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"leakest/internal/fault"
	"leakest/internal/telemetry"
)

// TestOverloadDegradesButStaysCorrect is the synthetic-overload acceptance
// test: with a single worker held busy by a slow truth request, queued
// requests are admitted at escalating load levels whose budgets push them
// down the degradation ladder. Every response must still be served (HTTP
// 200), carry the method-independent mean, and record why it was degraded;
// only the request past the hard queue cap is shed with 429 + Retry-After.
func TestOverloadDegradesButStaysCorrect(t *testing.T) {
	s := coreServer(t, Config{Workers: 1, QueueCap: 4})
	defer fault.Reset()

	// n=5000 sits above the heavy level's MaxGates soft cap (2000), so the
	// O(n) rung is ruled out under heavy/overload admission and the O(1)
	// integral serves.
	body := histRequest(5000)

	// Unloaded baseline: normal admission, no budget, no degradation.
	rec := do(t, s, "POST", "/v1/estimate", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("baseline: %d: %s", rec.Code, rec.Body.String())
	}
	baseline := decodeResp(t, rec)
	if baseline.Result.Degraded || baseline.Admission.Level != "normal" {
		t.Fatalf("baseline not clean: %+v", baseline)
	}

	// The blocker: a truth request over c17 with a 200 ms injected stall per
	// pair row (6 gates → ~1.2 s) holds the single worker. The queued
	// histogram requests never touch the truth path, so the fault is
	// invisible to them.
	fault.Arm(fault.SiteTruthRow, fault.Action{Kind: fault.Sleep, Delay: 200 * time.Millisecond})
	blockerDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		blockerDone <- do(t, s, "POST", "/v1/estimate", map[string]any{"bench": c17, "truth": true})
	}()
	waitFor(t, "blocker to hold the worker", func() bool { return fault.Hits(fault.SiteTruthRow) >= 1 })

	// Four requests join the queue one at a time, entering at depths
	// 1, 2, 3, 4 → levels busy, heavy, overload, overload.
	const queued = 4
	results := make(chan *httptest.ResponseRecorder, queued)
	for i := 0; i < queued; i++ {
		go func() { results <- do(t, s, "POST", "/v1/estimate", body) }()
		depth := i + 1
		waitFor(t, "queue depth", func() bool { return s.adm.queueDepth() >= depth })
	}

	// The fifth concurrent request exceeds the hard cap: shed, not queued.
	r := telemetry.Enable()
	shed0 := r.Counter("server_shed_total").Value()
	rec = do(t, s, "POST", "/v1/estimate", body)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("past queue cap: %d, want 429 (body %s)", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if d := r.Counter("server_shed_total").Value() - shed0; d != 1 {
		t.Errorf("server_shed_total += %d, want 1", d)
	}

	// Collect the queued responses: all served, levels escalate, degraded
	// responses stay numerically correct (the mean is method-independent).
	levels := map[string]int{}
	for i := 0; i < queued; i++ {
		rec := <-results
		if rec.Code != http.StatusOK {
			t.Fatalf("queued request: %d: %s", rec.Code, rec.Body.String())
		}
		resp := decodeResp(t, rec)
		lvl := resp.Admission.Level
		levels[lvl]++
		if !resp.Admission.BudgetImposed {
			t.Errorf("queued request admitted at %q without a load budget", lvl)
		}
		if dev := math.Abs(resp.Result.Mean-baseline.Result.Mean) / baseline.Result.Mean; dev > 1e-6 {
			t.Errorf("level %s: mean deviates %.3g from baseline — degradation changed the answer", lvl, dev)
		}
		switch lvl {
		case "busy":
			// MaxPairs only: the O(n) rung is still admissible.
			if resp.Result.Degraded {
				t.Errorf("busy-level request degraded: %s", resp.Result.DegradeReason)
			}
		case "heavy", "overload":
			if !resp.Result.Degraded {
				t.Errorf("%s-level request not degraded", lvl)
			}
			if m := resp.Result.Method; m != "polar-1d" {
				t.Errorf("%s-level served %q, want polar-1d", lvl, m)
			}
			if !strings.Contains(resp.Result.DegradeReason, "MaxGates") {
				t.Errorf("%s-level degrade reason %q does not name the budget", lvl, resp.Result.DegradeReason)
			}
		default:
			t.Errorf("unexpected admission level %q", lvl)
		}
		if resp.Conformance == nil || resp.Conformance.Status != "ok" {
			t.Errorf("%s-level conformance %+v", lvl, resp.Conformance)
		}
	}
	if levels["busy"] != 1 || levels["heavy"] != 1 || levels["overload"] != 2 {
		t.Errorf("admission levels %v, want busy:1 heavy:1 overload:2", levels)
	}

	// The blocker itself finishes untouched: normal admission, exact truth.
	brec := <-blockerDone
	if brec.Code != http.StatusOK {
		t.Fatalf("blocker: %d: %s", brec.Code, brec.Body.String())
	}
	bresp := decodeResp(t, brec)
	if bresp.Result.Method != "true-n2" || bresp.Result.Degraded {
		t.Errorf("blocker result %+v, want undegraded true-n2", bresp.Result)
	}
}
