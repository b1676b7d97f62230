package cells

import (
	"math"
	"strings"
	"testing"
)

func find(t *testing.T, name string) *Cell {
	t.Helper()
	for _, c := range Library() {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("cell %s not in library", name)
	return nil
}

func TestLibraryHas62Cells(t *testing.T) {
	lib := Library()
	if len(lib) != 62 {
		t.Fatalf("library has %d cells, want 62 (the paper's count)", len(lib))
	}
	// Names unique, classes known, device counts positive.
	seen := map[string]bool{}
	for _, c := range lib {
		if seen[c.Name] {
			t.Errorf("duplicate name %s", c.Name)
		}
		seen[c.Name] = true
		if c.Class != "comb" && c.Class != "seq" && c.Class != "sram" {
			t.Errorf("%s: unknown class %q", c.Name, c.Class)
		}
		if c.NumDevices <= 0 {
			t.Errorf("%s: no devices", c.Name)
		}
		if c.NumInputs < 0 || c.NumInputs > 6 {
			t.Errorf("%s: implausible input count %d", c.Name, c.NumInputs)
		}
	}
	// The paper highlights SRAM, flip-flops and a range of logic cells.
	for _, want := range []string{"SRAM6T", "DFF_X1", "NAND4_X1", "XOR2_X1", "AOI221_X1"} {
		if !seen[want] {
			t.Errorf("library missing %s", want)
		}
	}
}

func TestByName(t *testing.T) {
	m := ByName(Library())
	if len(m) != 62 {
		t.Fatalf("ByName lost cells: %d", len(m))
	}
	if m["INV_X1"].Name != "INV_X1" {
		t.Errorf("ByName lookup broken")
	}
}

func TestAllCellStatesEvaluate(t *testing.T) {
	// Every (cell, state) pair must produce a positive, finite leakage at
	// nominal L, and perturbing L must move it in the expected direction.
	for _, c := range Library() {
		for s := uint(0); s < uint(c.NumStates()); s++ {
			x := c.Leakage(s, lNom, nil)
			if !(x > 0) || math.IsInf(x, 0) || math.IsNaN(x) {
				t.Fatalf("%s state %d: leakage = %g", c.Name, s, x)
			}
			short := c.Leakage(s, lNom*0.95, nil)
			if short <= x {
				t.Errorf("%s state %d: shorter L must leak more (%g vs %g)", c.Name, s, short, x)
			}
		}
	}
}

func TestInverterStates(t *testing.T) {
	inv := find(t, "INV_X1")
	if inv.NumStates() != 2 {
		t.Fatalf("INV_X1 states = %d", inv.NumStates())
	}
	// Input low: NMOS off (leaks), PMOS on. Input high: PMOS off.
	// PMOS is wider but has lower specific current; both states must be
	// positive and differ (asymmetric device cards).
	l0 := inv.Leakage(0, lNom, nil)
	l1 := inv.Leakage(1, lNom, nil)
	if l0 == l1 {
		t.Errorf("INV states unexpectedly identical: %g", l0)
	}
}

func TestNANDStackEffectAcrossStates(t *testing.T) {
	nand := find(t, "NAND2_X1")
	// State 0 (both inputs low): both NMOS off — full stack effect, lowest
	// pull-down leakage. State 3 (both high): output low, PMOS leak only.
	l00 := nand.Leakage(0, lNom, nil)
	l01 := nand.Leakage(1, lNom, nil)
	l10 := nand.Leakage(2, lNom, nil)
	l11 := nand.Leakage(3, lNom, nil)
	// All-off stack should be the minimum of the three output-high states.
	if !(l00 < l01 && l00 < l10) {
		t.Errorf("stack effect missing: l00=%g l01=%g l10=%g l11=%g", l00, l01, l10, l11)
	}
	// The spread across states should be substantial (the paper reports up
	// to ~10X for single gates).
	min, max := l00, l00
	for _, v := range []float64{l01, l10, l11} {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max/min < 1.5 {
		t.Errorf("state spread = %g too small", max/min)
	}
}

func TestSignalsConsistency(t *testing.T) {
	// XOR2: last stage output must equal a ⊕ b for all states.
	xor := find(t, "XOR2_X1")
	for s := uint(0); s < 4; s++ {
		sig := xor.Signals(s)
		a := s&1 != 0
		b := s&2 != 0
		if got := sig[len(sig)-1]; got != (a != b) {
			t.Errorf("XOR2 state %d: out = %v", s, got)
		}
	}
	// FA: carry and sum stages.
	fa := find(t, "FA_X1")
	for s := uint(0); s < 8; s++ {
		sig := fa.Signals(s)
		a, b, ci := s&1 != 0, s&2 != 0, s&4 != 0
		n := 0
		for _, v := range []bool{a, b, ci} {
			if v {
				n++
			}
		}
		co := sig[fa.NumInputs+1]  // stage 1: co
		sum := sig[fa.NumInputs+3] // stage 3: s
		if co != (n >= 2) {
			t.Errorf("FA state %d: co = %v, ones = %d", s, co, n)
		}
		if sum != (n%2 == 1) {
			t.Errorf("FA state %d: sum = %v, ones = %d", s, sum, n)
		}
	}
	// MAJ3.
	maj := find(t, "MAJ3_X1")
	for s := uint(0); s < 8; s++ {
		sig := maj.Signals(s)
		n := 0
		for i := 0; i < 3; i++ {
			if s&(1<<uint(i)) != 0 {
				n++
			}
		}
		if got := sig[len(sig)-1]; got != (n >= 2) {
			t.Errorf("MAJ3 state %d: out = %v", s, got)
		}
	}
	// MUX2: inputs d0=bit0, d1=bit1, s=bit2.
	mux := find(t, "MUX2_X1")
	for s := uint(0); s < 8; s++ {
		sig := mux.Signals(s)
		d0, d1, sel := s&1 != 0, s&2 != 0, s&4 != 0
		want := d0
		if sel {
			want = d1
		}
		if got := sig[len(sig)-1]; got != want {
			t.Errorf("MUX2 state %d: out = %v, want %v", s, got, want)
		}
	}
}

func TestDFFStateConsistency(t *testing.T) {
	dff := find(t, "DFF_X1")
	if dff.NumInputs != 4 {
		t.Fatalf("DFF inputs = %d", dff.NumInputs)
	}
	// CLK=0 (transparent master): master node follows D.
	// Signals: D=0 CLK=1 M=2 S=3 clkb=4 clki=5 m_in=6 ...
	sig := dff.Signals(0b0001) // D=1, CLK=0, M=0, S=0
	if !sig[6] {
		t.Errorf("CLK=0: master node should follow D=1")
	}
	// CLK=1: master holds M regardless of D.
	sig = dff.Signals(0b0011) // D=1, CLK=1, M=0, S=0
	if sig[6] {
		t.Errorf("CLK=1: master node should hold M=0")
	}
	// CLK=1: slave follows mq = !m_in.
	if sig[9] != !sig[6] {
		t.Errorf("CLK=1: slave should follow !master")
	}
	// TG consistency: when the input TG is ON (CLK=0) the master node
	// equals D, so the TG carries no DC current. This keeps total leakage
	// modest; a contradiction would show up as an enormous ON current.
	for s := uint(0); s < uint(dff.NumStates()); s++ {
		x := dff.Leakage(s, lNom, nil)
		if x > 1e-5 {
			t.Errorf("DFF state %04b: leakage %g suspiciously large (TG contradiction?)", s, x)
		}
	}
}

func TestSRAMCell(t *testing.T) {
	sram := find(t, "SRAM6T")
	if sram.NumStates() != 1 {
		t.Fatalf("SRAM states = %d", sram.NumStates())
	}
	if sram.NumDevices != 6 {
		t.Errorf("SRAM devices = %d, want 6", sram.NumDevices)
	}
	x := sram.Leakage(0, lNom, nil)
	// Three leaking narrow devices: order ~3 single-device leakages scaled
	// by width ratios.
	if !(x > 0 && x < 1e-6) {
		t.Errorf("SRAM leakage = %g implausible", x)
	}
}

func TestVtOffsetsLowerVtMoreLeakage(t *testing.T) {
	inv := find(t, "INV_X1")
	dvt := make([]float64, inv.NumDevices)
	for i := range dvt {
		dvt[i] = -0.05
	}
	hot := inv.Leakage(0, lNom, dvt)
	base := inv.Leakage(0, lNom, nil)
	if hot <= base {
		t.Errorf("lower Vt must increase leakage: %g vs %g", hot, base)
	}
}

func TestLeakagePanics(t *testing.T) {
	inv := find(t, "INV_X1")
	for _, f := range []func(){
		func() { inv.Leakage(5, lNom, nil) },
		func() { inv.Leakage(0, 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestCoreSubset(t *testing.T) {
	sub := CoreSubset()
	if len(sub) < 5 {
		t.Fatalf("core subset too small: %d", len(sub))
	}
	classes := map[string]bool{}
	for _, c := range sub {
		classes[c.Class] = true
	}
	for _, want := range []string{"comb", "seq", "sram"} {
		if !classes[want] {
			t.Errorf("core subset missing class %s", want)
		}
	}
}

func TestDriveStrengthScalesLeakage(t *testing.T) {
	x1 := find(t, "INV_X1")
	x4 := find(t, "INV_X4")
	r := x4.Leakage(0, lNom, nil) / x1.Leakage(0, lNom, nil)
	if math.Abs(r-4) > 0.01 {
		t.Errorf("INV_X4/INV_X1 leakage ratio = %g, want 4", r)
	}
}

func TestTotalLibraryStateCount(t *testing.T) {
	// Keep a record of the characterization workload; guards against an
	// accidental explosion of pseudo-inputs.
	total := 0
	for _, c := range Library() {
		total += c.NumStates()
	}
	if total < 100 || total > 1200 {
		t.Errorf("total library states = %d outside expected envelope", total)
	}
	t.Logf("library: 62 cells, %d total states", total)
}

func TestSequentialCellsHaveTGs(t *testing.T) {
	for _, name := range []string{"DFF_X1", "DLATCH_X1", "SDFF_X1"} {
		c := find(t, name)
		if len(c.Extras) == 0 {
			t.Errorf("%s has no transmission-gate extras", name)
		}
		if !strings.HasPrefix(c.Class, "seq") {
			t.Errorf("%s class = %s", name, c.Class)
		}
	}
}

func TestGateLeakageEnablement(t *testing.T) {
	// Fresh subset with gate leakage off: zero gate contribution.
	plain := ISCASSubset()
	for _, c := range plain {
		if g := c.GateLeakage(0, lNom); g != 0 {
			t.Fatalf("%s: gate leakage %g without enablement", c.Name, g)
		}
	}
	// Enabled: every cell gains a positive gate term and TotalLeakage adds
	// up; subthreshold is unchanged.
	gated := EnableGateLeakage(ISCASSubset(), 3e-7)
	for i, c := range gated {
		sub := c.Leakage(0, lNom, nil)
		gate := c.GateLeakage(0, lNom)
		if gate <= 0 {
			t.Errorf("%s: gate leakage %g after enablement", c.Name, gate)
		}
		if tot := c.TotalLeakage(0, lNom, nil); math.Abs(tot-(sub+gate)) > 1e-18 {
			t.Errorf("%s: TotalLeakage %g != %g + %g", c.Name, tot, sub, gate)
		}
		if plainSub := plain[i].Leakage(0, lNom, nil); math.Abs(plainSub-sub)/plainSub > 1e-12 {
			t.Errorf("%s: enabling gate leakage changed subthreshold", c.Name)
		}
	}
	// Gate leakage increases with L (tunneling area) — opposite to
	// subthreshold.
	inv := gated[0]
	if !(inv.GateLeakage(0, lNom*1.05) > inv.GateLeakage(0, lNom*0.95)) {
		t.Errorf("gate leakage should grow with L")
	}
	// Sequential extras also participate.
	dff := EnableGateLeakage([]*Cell{dffCell("DFF_T", 1)}, 3e-7)[0]
	if dff.GateLeakage(0, lNom) <= 0 {
		t.Errorf("DFF extras have no gate leakage")
	}
}

func TestAtTemperatureCells(t *testing.T) {
	hot, err := AtTemperature(ISCASSubset(), 375)
	if err != nil {
		t.Fatal(err)
	}
	cold := ISCASSubset()
	for i := range hot {
		h := hot[i].Leakage(0, lNom, nil)
		c := cold[i].Leakage(0, lNom, nil)
		if h < 2*c {
			t.Errorf("%s: 375 K leakage %g not well above 300 K %g", hot[i].Name, h, c)
		}
	}
	if _, err := AtTemperature(ISCASSubset(), 1000); err == nil {
		t.Errorf("absurd temperature accepted")
	}
	// Extras path: DFF contains extras whose cards must also rescale.
	dffs, err := AtTemperature([]*Cell{dffCell("DFF_T", 1)}, 375)
	if err != nil {
		t.Fatal(err)
	}
	base := dffCell("DFF_T", 1)
	if dffs[0].Leakage(0, lNom, nil) <= base.Leakage(0, lNom, nil) {
		t.Errorf("DFF extras not rescaled")
	}
}

func TestOutputProbability(t *testing.T) {
	nand := find(t, "NAND2_X1")
	// P(out=1) = 1 − p_a·p_b.
	for _, probs := range [][2]float64{{0.5, 0.5}, {0.2, 0.9}, {1, 1}, {0, 0.7}} {
		got, err := nand.OutputProbability(probs[:])
		if err != nil {
			t.Fatal(err)
		}
		want := 1 - probs[0]*probs[1]
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("NAND2(%v): %g, want %g", probs, got, want)
		}
	}
	// XOR2: p_a(1−p_b) + (1−p_a)p_b.
	xor := find(t, "XOR2_X1")
	got, err := xor.OutputProbability([]float64{0.3, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.3*0.2 + 0.7*0.8
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("XOR2: %g, want %g", got, want)
	}
	// Errors.
	if _, err := nand.OutputProbability([]float64{0.5}); err == nil {
		t.Errorf("pin-count mismatch accepted")
	}
	if _, err := nand.OutputProbability([]float64{0.5, 2}); err == nil {
		t.Errorf("out-of-range probability accepted")
	}
	sram := find(t, "SRAM6T")
	if _, err := sram.OutputProbability(nil); err == nil {
		t.Errorf("stage-less cell should have no output probability")
	}
}
