package leakest

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// failingWriter returns an error once limit bytes have been accepted,
// emulating a closed pipe partway through a report.
type failingWriter struct {
	limit   int
	written int
}

var errWriterClosed = errors.New("writer closed")

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.limit {
		n := f.limit - f.written
		if n < 0 {
			n = 0
		}
		f.written += n
		return n, errWriterClosed
	}
	f.written += len(p)
	return len(p), nil
}

func TestReportSections(t *testing.T) {
	est := coreEstimator(t)
	design := Design{Hist: coreHist(t), N: 400, W: 50, H: 50, SignalProb: 0.5}

	var buf bytes.Buffer
	if err := est.Report(&buf, "Test chip", design); err != nil {
		t.Fatalf("Report: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# Test chip",
		"## Design characteristics",
		"| cells | 400 |",
		"## Estimates",
		"| linear |",
		"| naive |",
		"## Leakage distribution",
		"| p95 |",
		"## Variance breakdown",
		"within-die correlation",
		"## Yield vs leakage budget",
		"Budget for 95% yield",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestReportDefaultTitle(t *testing.T) {
	est := coreEstimator(t)
	design := Design{Hist: coreHist(t), N: 100, W: 30, H: 30, SignalProb: 0.5}
	var buf bytes.Buffer
	if err := est.Report(&buf, "", design); err != nil {
		t.Fatalf("Report: %v", err)
	}
	if !strings.HasPrefix(buf.String(), "# Full-chip leakage sign-off\n") {
		t.Errorf("empty title must fall back to the default; got %q",
			strings.SplitN(buf.String(), "\n", 2)[0])
	}
}

// TestReportWriterError checks the first write failure is surfaced, at the
// very first byte and partway through (after the header has gone out).
func TestReportWriterError(t *testing.T) {
	est := coreEstimator(t)
	design := Design{Hist: coreHist(t), N: 100, W: 30, H: 30, SignalProb: 0.5}
	for _, limit := range []int{0, 64} {
		err := est.Report(&failingWriter{limit: limit}, "Doomed", design)
		if !errors.Is(err, errWriterClosed) {
			t.Errorf("limit %d: got %v, want the writer's error", limit, err)
		}
	}
}

// TestReportNoMethodSucceeds: a well-formed design whose cell type the
// library does not know makes every estimation method fail; the report
// must return an error rather than emit a document with an empty estimates
// table.
func TestReportNoMethodSucceeds(t *testing.T) {
	est := coreEstimator(t)
	bad := Design{Hist: mustHist(t, map[string]float64{"NOPE": 1}), N: 100, W: 30, H: 30, SignalProb: 0.5}
	var buf bytes.Buffer
	err := est.Report(&buf, "Broken", bad)
	if err == nil {
		t.Fatal("report on an unestimable design must fail")
	}
	if !strings.Contains(err.Error(), "no estimation method succeeded") {
		t.Errorf("error = %v, want the no-method-succeeded diagnostic", err)
	}
}

// TestReportValidatesDesign: the report checks its design before writing
// it, so a design without a histogram is a typed InvalidInput with nothing
// written, not a panic.
func TestReportValidatesDesign(t *testing.T) {
	est := coreEstimator(t)
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Report panicked: %v", r)
		}
	}()
	for name, d := range map[string]Design{
		"nil histogram": {N: 100, W: 30, H: 30, SignalProb: 0.5},
		"zero gates":    {Hist: coreHist(t), W: 30, H: 30, SignalProb: 0.5},
	} {
		var buf bytes.Buffer
		if err := est.Report(&buf, "", d); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("%s: got %v, want InvalidInput", name, err)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: %d bytes written before the refusal", name, buf.Len())
		}
	}
}

// TestReportIgnoresBudget: the report's estimate table runs every method as
// asked even when the estimator carries a budget, which would otherwise
// send each row down the degradation ladder.
func TestReportIgnoresBudget(t *testing.T) {
	est := coreEstimator(t)
	design := Design{Hist: coreHist(t), N: 400, W: 50, H: 50, SignalProb: 0.5}
	estimates := func(e *Estimator) string {
		var buf bytes.Buffer
		if err := e.Report(&buf, "", design); err != nil {
			t.Fatalf("Report: %v", err)
		}
		out := buf.String()
		return out[strings.Index(out, "## Estimates"):strings.Index(out, "## Leakage distribution")]
	}
	want := estimates(est)
	est.Budget = EstimateBudget{MaxGates: 1}
	if got := estimates(est); got != want {
		t.Errorf("estimates under a budget:\n%s\nwant:\n%s", got, want)
	}
}
