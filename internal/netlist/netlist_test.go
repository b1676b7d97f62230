package netlist

import (
	"bytes"
	"strings"
	"testing"

	"leakest/internal/cells"
	"leakest/internal/stats"
)

func libArity(t testing.TB) CellArity {
	t.Helper()
	byName := cells.ByName(cells.Library())
	return func(typ string) (int, error) {
		c, ok := byName[typ]
		if !ok {
			t.Fatalf("unknown cell %s", typ)
		}
		return c.NumInputs, nil
	}
}

func TestValidate(t *testing.T) {
	good := &Netlist{Name: "g", NumPI: 2, Gates: []Gate{
		{Type: "INV_X1", Fanins: []int{0}},
		{Type: "NAND2_X1", Fanins: []int{1, 2}},
	}, Outputs: []int{3}}
	if err := good.Validate(); err != nil {
		t.Errorf("good netlist rejected: %v", err)
	}
	bad := []*Netlist{
		{NumPI: -1},
		{NumPI: 1, Gates: []Gate{{Type: "", Fanins: nil}}},
		{NumPI: 1, Gates: []Gate{{Type: "INV_X1", Fanins: []int{1}}}},  // self/future ref
		{NumPI: 1, Gates: []Gate{{Type: "INV_X1", Fanins: []int{-1}}}}, // negative
		{NumPI: 1, Outputs: []int{5}},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bad netlist %d accepted", i)
		}
	}
}

func TestCountsAndHistogram(t *testing.T) {
	nl := &Netlist{Name: "h", NumPI: 1, Gates: []Gate{
		{Type: "INV_X1", Fanins: []int{0}},
		{Type: "INV_X1", Fanins: []int{1}},
		{Type: "NAND2_X1", Fanins: []int{0, 1}},
	}}
	c := nl.Counts()
	if c["INV_X1"] != 2 || c["NAND2_X1"] != 1 {
		t.Errorf("Counts = %v", c)
	}
	h, err := nl.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	if p := h.Prob("INV_X1"); p != 2.0/3 {
		t.Errorf("P(INV) = %g", p)
	}
	empty := &Netlist{Name: "e", NumPI: 1}
	if _, err := empty.Histogram(); err == nil {
		t.Errorf("empty netlist histogram should fail")
	}
}

func TestRandomCircuitMatchesHistogram(t *testing.T) {
	hist, _ := stats.NewHistogram(map[string]float64{
		"INV_X1": 1, "NAND2_X1": 2, "NOR2_X1": 1,
	})
	rng := stats.NewRNG(3, "rand-circ")
	nl, err := RandomCircuit(rng, "rc", 4000, 16, hist, libArity(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := nl.Validate(); err != nil {
		t.Fatalf("generated netlist invalid: %v", err)
	}
	if len(nl.Gates) != 4000 {
		t.Fatalf("gate count %d", len(nl.Gates))
	}
	got, _ := nl.Histogram()
	if d := stats.TotalVariationDistance(hist, got); d > 0.03 {
		t.Errorf("generated histogram TV distance %g from target", d)
	}
	if len(nl.Outputs) == 0 {
		t.Errorf("no outputs designated")
	}
	if _, err := RandomCircuit(rng, "bad", 0, 4, hist, libArity(t)); err == nil {
		t.Errorf("zero gates accepted")
	}
}

func TestBenchRoundTrip(t *testing.T) {
	hist, _ := stats.NewHistogram(map[string]float64{
		"INV_X1": 1, "NAND2_X1": 2, "NOR3_X1": 1, "XOR2_X1": 1, "BUF_X1": 1,
	})
	rng := stats.NewRNG(9, "bench-rt")
	nl, err := RandomCircuit(rng, "rt", 200, 8, hist, libArity(t))
	if err != nil {
		t.Fatal(err)
	}
	tm := DefaultTechMap()
	var buf bytes.Buffer
	if err := WriteBench(&buf, nl, tm); err != nil {
		t.Fatalf("WriteBench: %v", err)
	}
	got, err := ReadBench(&buf, "rt", tm)
	if err != nil {
		t.Fatalf("ReadBench: %v", err)
	}
	if got.NumPI != nl.NumPI || len(got.Gates) != len(nl.Gates) {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
			got.NumPI, len(got.Gates), nl.NumPI, len(nl.Gates))
	}
	// Cell usage must survive exactly.
	want := nl.Counts()
	have := got.Counts()
	for typ, n := range want {
		if have[typ] != n {
			t.Errorf("type %s: %d vs %d", typ, have[typ], n)
		}
	}
}

func TestReadBenchISCASStyle(t *testing.T) {
	src := `
# simple circuit
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G10 = NAND(G1, G2)
G11 = NOR(G10, G3)
G16 = NOT(G11)
G17 = XOR(G16, G10)
`
	nl, err := ReadBench(strings.NewReader(src), "simple", DefaultTechMap())
	if err != nil {
		t.Fatal(err)
	}
	if nl.NumPI != 3 || len(nl.Gates) != 4 {
		t.Fatalf("shape: %d PIs, %d gates", nl.NumPI, len(nl.Gates))
	}
	c := nl.Counts()
	for _, want := range []string{"NAND2_X1", "NOR2_X1", "INV_X1", "XOR2_X1"} {
		if c[want] != 1 {
			t.Errorf("missing %s in %v", want, c)
		}
	}
	if len(nl.Outputs) != 1 {
		t.Errorf("outputs = %v", nl.Outputs)
	}
}

func TestReadBenchOutOfOrder(t *testing.T) {
	// Gates listed before their fanins must still resolve.
	src := `
INPUT(a)
OUTPUT(z)
z = NOT(y)
y = NAND(a, a)
`
	nl, err := ReadBench(strings.NewReader(src), "ooo", DefaultTechMap())
	if err != nil {
		t.Fatal(err)
	}
	if err := nl.Validate(); err != nil {
		t.Errorf("out-of-order parse produced invalid netlist: %v", err)
	}
}

func TestReadBenchErrors(t *testing.T) {
	tm := DefaultTechMap()
	cases := []string{
		"INPUT(a)\nz = NOT(missing)\n",       // undriven fanin
		"INPUT(a)\nz NOT(a)\n",               // missing '='
		"INPUT(a)\nz = WEIRD(a)\n",           // unknown op
		"INPUT(a)\nOUTPUT(q)\nz = NOT(a)\n",  // undriven output
		"INPUT(a)\nz = NOT(a)\nz = NOT(a)\n", // doubly driven
		"INPUT(a)\nINPUT(a)\n",               // duplicate input
		"INPUT(a)\nx = NOT(y)\ny = NOT(x)\n", // cycle
		"INPUT(a)\nz = NAND(a, a, a, a, a)\n",
	}
	for i, src := range cases {
		if _, err := ReadBench(strings.NewReader(src), "bad", tm); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestTechMapCoverage(t *testing.T) {
	tm := DefaultTechMap()
	// Every mappable op round-trips through a cell.
	for _, op := range []string{"NOT", "BUFF", "NAND", "NOR", "AND", "OR", "XOR", "XNOR"} {
		arity := 2
		if op == "NOT" || op == "BUFF" {
			arity = 1
		}
		cell, err := tm.OpToCell(op, arity)
		if err != nil {
			t.Errorf("OpToCell(%s): %v", op, err)
			continue
		}
		back, err := tm.CellToOp(cell)
		if err != nil {
			t.Errorf("CellToOp(%s): %v", cell, err)
			continue
		}
		// NOT↔INV and BUF spellings normalize.
		if back != op && !(op == "NOT" && back == "NOT") {
			if !(op == "BUFF" && back == "BUFF") {
				t.Errorf("%s → %s → %s", op, cell, back)
			}
		}
	}
	if _, err := tm.CellToOp("AOI21_X1"); err == nil {
		t.Errorf("AOI cells should not map to bench ops")
	}
	if _, err := tm.OpToCell("NAND", 7); err == nil {
		t.Errorf("7-input NAND should be rejected")
	}
}

func TestSortedTypes(t *testing.T) {
	nl := &Netlist{NumPI: 1, Gates: []Gate{
		{Type: "Z", Fanins: []int{0}},
		{Type: "A", Fanins: []int{0}},
		{Type: "Z", Fanins: []int{0}},
	}}
	got := nl.SortedTypes()
	if len(got) != 2 || got[0] != "A" || got[1] != "Z" {
		t.Errorf("SortedTypes = %v", got)
	}
}

func TestPropagateProbabilities(t *testing.T) {
	// INV chain: probabilities alternate p, 1−p, p, ...
	nl := &Netlist{Name: "chain", NumPI: 1, Gates: []Gate{
		{Type: "INV_X1", Fanins: []int{0}},
		{Type: "INV_X1", Fanins: []int{1}},
		{Type: "INV_X1", Fanins: []int{2}},
	}}
	arity := func(string) (int, error) { return 1, nil }
	outProb := func(typ string, pins []float64) (float64, error) { return 1 - pins[0], nil }
	probs, gatePins, err := PropagateProbabilities(nl, 0.3, arity, outProb)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.3, 0.7, 0.3, 0.7}
	for i, w := range want {
		if diff := probs[i] - w; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("node %d: %g, want %g", i, probs[i], w)
		}
	}
	if gatePins[1][0] != 0.7 {
		t.Errorf("gate 1 pin prob = %g", gatePins[1][0])
	}
	// Pseudo pins padded with 0.5.
	nl2 := &Netlist{Name: "dff", NumPI: 1, Gates: []Gate{
		{Type: "DFF_X1", Fanins: []int{0, 0}}, // D and CLK wired, M/S pseudo
	}}
	arity4 := func(string) (int, error) { return 4, nil }
	passThrough := func(typ string, pins []float64) (float64, error) { return pins[0], nil }
	_, pins, err := PropagateProbabilities(nl2, 0.9, arity4, passThrough)
	if err != nil {
		t.Fatal(err)
	}
	if len(pins[0]) != 4 || pins[0][2] != 0.5 || pins[0][3] != 0.5 {
		t.Errorf("pseudo pins not padded: %v", pins[0])
	}
	// Errors.
	if _, _, err := PropagateProbabilities(nl, 2, arity, outProb); err == nil {
		t.Errorf("bad input probability accepted")
	}
	badOut := func(string, []float64) (float64, error) { return 3, nil }
	if _, _, err := PropagateProbabilities(nl, 0.5, arity, badOut); err == nil {
		t.Errorf("out-of-range output probability accepted")
	}
	arity0 := func(string) (int, error) { return 0, nil }
	if _, _, err := PropagateProbabilities(nl, 0.5, arity0, outProb); err == nil {
		t.Errorf("fanin/pin mismatch accepted")
	}
}

// BenchmarkReadBench parses a 2,000-gate random circuit that uses every
// multi-input operator the default tech map knows; run with -benchmem.
func BenchmarkReadBench(b *testing.B) {
	hist, err := stats.NewHistogram(map[string]float64{
		"INV_X1": 4, "BUF_X1": 1, "NAND2_X1": 3, "NAND3_X1": 1, "NAND4_X1": 1,
		"NOR2_X1": 2, "NOR3_X1": 1, "AND2_X1": 1, "OR2_X1": 1, "XOR2_X1": 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	nl, err := RandomCircuit(stats.NewRNG(5, "read-bench"), "rb", 2000, 32, hist, libArity(b))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBench(&buf, nl, DefaultTechMap()); err != nil {
		b.Fatal(err)
	}
	src := buf.Bytes()
	tm := DefaultTechMap()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBench(bytes.NewReader(src), "rb", tm); err != nil {
			b.Fatal(err)
		}
	}
}
