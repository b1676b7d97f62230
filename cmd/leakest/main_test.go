package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"leakest"
)

func TestParseHist(t *testing.T) {
	h, err := parseHist("INV_X1:3, NAND2_X1:2 ,NOR2_X1:1,")
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 3 {
		t.Fatalf("parsed %d entries", h.Len())
	}
	if p := h.Prob("INV_X1"); p != 0.5 {
		t.Errorf("P(INV_X1) = %g, want 0.5", p)
	}
	bad := []string{
		"INV_X1",       // no colon
		"INV_X1:x",     // bad weight
		"INV_X1:-1",    // negative weight
		"",             // empty
		"INV_X1:0,B:0", // zero total
	}
	for _, s := range bad {
		if _, err := parseHist(s); err == nil {
			t.Errorf("parseHist(%q) accepted", s)
		}
	}
}

// TestMain lets a test run the command itself in a child process: with
// LEAKEST_TEST_MAIN=1 in its environment, the test binary is leakest.
func TestMain(m *testing.M) {
	if os.Getenv("LEAKEST_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runLeakest runs the command with args in a child process and returns its
// stdout, stderr and exit code.
func runLeakest(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LEAKEST_TEST_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// TestStreamJSONReportToStdout: with `-json-report -` stdout carries exactly
// one JSON report, and the mode banner and result lines go to stderr.
func TestStreamJSONReportToStdout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.stream")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := leakest.WriteSyntheticStream(f, "cli", 20, 20, 2, 2, 2,
		[]string{"INV_X1", "NAND2_X1", "NOR2_X1"}, 400); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := runLeakest(t, "-stream", path, "-p", "0.5", "-workers", "1", "-json-report", "-")
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr)
	}
	dec := json.NewDecoder(strings.NewReader(stdout))
	var rep runReport
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("stdout is not a JSON report: %v\n%s", err, stdout)
	}
	if _, err := dec.Token(); err != io.EOF {
		t.Fatalf("stdout holds more than one JSON document:\n%s", stdout)
	}
	if rep.Design.N != 400 || !(rep.Result.Mean > 0) {
		t.Errorf("report design %+v, result mean %g", rep.Design, rep.Result.Mean)
	}
	for _, line := range []string{"stream mode: 400 gates", "method: ", "mean leakage: "} {
		if !strings.Contains(stderr, line) {
			t.Errorf("stderr lacks %q:\n%s", line, stderr)
		}
	}
}

// TestStreamReportCarriesHeaderDesign: a stream run's JSON report carries
// the gate count and die size of the stream's header, and the "stream mode"
// line prints, on the full estimate and on a budget-degraded one whose
// result has no tile statistics.
func TestStreamReportCarriesHeaderDesign(t *testing.T) {
	const rows, cols, siteW, siteH, gates = 200, 250, 2.0, 1.5, 30000
	path := filepath.Join(t.TempDir(), "s.stream")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := leakest.WriteSyntheticStream(f, "cli", rows, cols, siteW, siteH, 4,
		[]string{"INV_X1", "NAND2_X1", "NOR2_X1"}, gates); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		args     []string
		degraded bool
	}{
		{"full", nil, false},
		{"degraded", []string{"-max-gates", "100"}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			args := append([]string{"-stream", path, "-p", "0.5", "-workers", "1", "-json-report", "-"}, c.args...)
			stdout, stderr, code := runLeakest(t, args...)
			if code != 0 {
				t.Fatalf("exit %d; stderr:\n%s", code, stderr)
			}
			var rep runReport
			if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
				t.Fatalf("stdout is not a JSON report: %v\n%s", err, stdout)
			}
			if rep.Result.Degraded != c.degraded || (len(rep.Result.TileStats) == 0) != c.degraded {
				t.Fatalf("degraded %v with %d tile stats, want degraded %v", rep.Result.Degraded, len(rep.Result.TileStats), c.degraded)
			}
			if d := rep.Design; d.N != gates || d.W != cols*siteW || d.H != rows*siteH {
				t.Errorf("report design n=%d w_um=%g h_um=%g, want %d, %g, %g", d.N, d.W, d.H, gates, cols*siteW, rows*siteH)
			}
			if want := "stream mode: 30000 gates"; !strings.Contains(stderr, want) {
				t.Errorf("stderr lacks %q:\n%s", want, stderr)
			}
		})
	}
}

// TestFlagMistakesRefusedBeforeCharacterizing: invocations that are wrong
// from their flags alone exit 1 with their reason before the cell library
// is characterized.
func TestFlagMistakesRefusedBeforeCharacterizing(t *testing.T) {
	early := []string{"-hist", "INV_X1:1", "-n", "10", "-w", "10", "-h", "10"}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-truth"}, "-truth and -mc need -bench"},
		{append([]string{"-mc", "10"}, early...), "-truth and -mc need -bench"},
		{[]string{"-bench", "c17.bench", "-spec", "1e-6"}, "need a Monte-Carlo run"},
		{[]string{"-bench", "c17.bench", "-quantiles", "0.5"}, "need a Monte-Carlo run"},
		{append([]string{"-tail-trials", "100"}, early...), "need a Monte-Carlo run"},
		{[]string{"-stream", "s.stream", "-bench", "c17.bench"}, "-stream is its own input mode"},
		{[]string{"-stream", "s.stream", "-hist", "INV_X1:1"}, "-stream is its own input mode"},
		{[]string{"-stream", "s.stream", "-truth"}, "not available with -stream"},
		{[]string{"-stream", "s.stream", "-mc", "10"}, "not available with -stream"},
		{[]string{"-stream", "s.stream", "-report", "r.md"}, "not available with -stream"},
	} {
		stdout, stderr, code := runLeakest(t, c.args...)
		if code != 1 || !strings.Contains(stderr, c.want) {
			t.Errorf("%q: exit %d, stderr %q; want exit 1 naming %q", c.args, code, stderr, c.want)
		}
		if strings.Contains(stderr, "characterizing") || stdout != "" {
			t.Errorf("%q: refused only after starting work; stdout %q, stderr %q", c.args, stdout, stderr)
		}
	}
}
