package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"leakest/internal/conformance"
)

// TestVerifyJSONToStdout: with `-json -` stdout carries exactly one JSON
// report, and the human summary goes to stderr.
func TestVerifyJSONToStdout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := runVerify([]string{"-short", "-workers", "2", "-json", "-"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	var rep conformance.Report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not one JSON document: %v\n%s", err, stdout.String())
	}
	if len(rep.Checks) == 0 || rep.Failed != 0 || !conformance.AllCaught(rep.SelfCheck) {
		t.Errorf("report: %d checks, %d failed, self-check %+v", len(rep.Checks), rep.Failed, rep.SelfCheck)
	}
	if !strings.Contains(stderr.String(), "mutation self-check:") {
		t.Errorf("summary missing from stderr:\n%s", stderr.String())
	}
}
