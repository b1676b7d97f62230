package main

import (
	"testing"
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
