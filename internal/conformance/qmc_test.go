package conformance

import "testing"

// TestQMCGoldenFrozen checks the referee moments are frozen alongside the
// E1–E6 shapes.
func TestQMCGoldenFrozen(t *testing.T) {
	entries, err := FrozenGolden()
	if err != nil {
		t.Fatalf("FrozenGolden: %v", err)
	}
	seen := map[string]bool{}
	for _, e := range entries {
		seen[e.Name] = true
	}
	for _, name := range []string{
		"qmc.dense_ref_mean", "qmc.dense_ref_std", "qmc.fft_ref_mean", "qmc.fft_ref_std",
	} {
		if !seen[name] {
			t.Errorf("golden entry %q missing — run `go generate ./internal/conformance`", name)
		}
	}
}
