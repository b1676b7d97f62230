package device

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTechValidate(t *testing.T) {
	for _, k := range []Kind{NMOS, PMOS} {
		if err := Default90nmTech(k).Validate(); err != nil {
			t.Errorf("%v default tech invalid: %v", k, err)
		}
	}
	good := Default90nmTech(NMOS)
	mutations := []func(*Tech){
		func(c *Tech) { c.ISpec = 0 },
		func(c *Tech) { c.N = 0.5 },
		func(c *Tech) { c.Vt0 = 0 },
		func(c *Tech) { c.Vt0 = 2 },
		func(c *Tech) { c.Lt = 0 },
		func(c *Tech) { c.VT = 0 },
		func(c *Tech) { c.Vdd = 0 },
		func(c *Tech) { c.Eta = -1 },
	}
	for i, mut := range mutations {
		c := good
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestKindString(t *testing.T) {
	if NMOS.String() != "NMOS" || PMOS.String() != "PMOS" {
		t.Errorf("Kind strings wrong: %s %s", NMOS, PMOS)
	}
}

func TestSubthresholdSlope(t *testing.T) {
	// Leakage should decrease by 10× per swing S of gate underdrive.
	m := NewMOSFET(NMOS, 0.3, 0.09)
	s := m.Tech.N * m.Tech.VT * math.Ln10 // swing n·vT·ln10, volts per decade
	if s < 0.07 || s > 0.11 {
		t.Fatalf("swing = %g V/dec, outside plausible range", s)
	}
	i1 := m.Ids(0, 0, m.Tech.Vdd, m.LNominal, 0)
	i2 := m.Ids(-s, 0, m.Tech.Vdd, m.LNominal, 0)
	ratio := i1 / i2
	if math.Abs(ratio-10) > 0.5 {
		t.Errorf("one-swing ratio = %g, want ≈10", ratio)
	}
}

func TestOffLeakageMagnitude(t *testing.T) {
	// Synthetic 90nm device should leak in the nA–tens-of-nA range when off
	// and conduct µA–mA range when on: Ion/Ioff ≥ 10³.
	for _, k := range []Kind{NMOS, PMOS} {
		m := NewMOSFET(k, 0.3, 0.09)
		off := m.OffLeakage(m.LNominal, 0)
		on := math.Abs(m.Ids(m.Tech.Vdd, 0, m.Tech.Vdd, m.LNominal, 0)) // saturated on-current
		if k == PMOS {
			on = math.Abs(m.Ids(0, m.Tech.Vdd, 0, m.LNominal, 0))
		}
		if off < 1e-10 || off > 1e-6 {
			t.Errorf("%v off leakage %g A implausible", k, off)
		}
		if on/off < 1e3 {
			t.Errorf("%v Ion/Ioff = %g too small", k, on/off)
		}
	}
}

func TestLeakageExponentialInL(t *testing.T) {
	// Shorter L ⇒ exponentially more leakage; the log-derivative magnitude
	// should be in the tens-per-µm range so that ±4%L moves leakage
	// noticeably (the paper's entire premise).
	m := NewMOSFET(NMOS, 0.3, 0.09)
	l0 := 0.09
	dl := 0.001
	b := (math.Log(m.OffLeakage(l0+dl, 0)) - math.Log(m.OffLeakage(l0-dl, 0))) / (2 * dl)
	if b >= 0 {
		t.Fatalf("leakage must decrease with L, got dlnI/dL = %g", b)
	}
	if -b < 30 || -b > 300 {
		t.Errorf("dlnI/dL = %g /µm outside plausible range", b)
	}
}

func TestVtRandomOffsetDirection(t *testing.T) {
	m := NewMOSFET(NMOS, 0.3, 0.09)
	up := m.OffLeakage(m.LNominal, +0.03)
	dn := m.OffLeakage(m.LNominal, -0.03)
	base := m.OffLeakage(m.LNominal, 0)
	if !(dn > base && base > up) {
		t.Errorf("Vt offset direction wrong: up=%g base=%g dn=%g", up, base, dn)
	}
	// Symmetric exponential: ratio should be exp(2·0.03/(n·vT)) approximately.
	want := math.Exp(2 * 0.03 / (m.Tech.N * m.Tech.VT))
	if got := dn / up; math.Abs(got-want)/want > 0.05 {
		t.Errorf("±30 mV ratio = %g, want ≈ %g", got, want)
	}
}

func TestIdsAntisymmetry(t *testing.T) {
	// Swapping source and drain must negate the current (channel symmetry).
	m := NewMOSFET(NMOS, 0.3, 0.09)
	f := func(vg, vs, vd float64) bool {
		vg = math.Mod(math.Abs(vg), 1)
		vs = math.Mod(math.Abs(vs), 1)
		vd = math.Mod(math.Abs(vd), 1)
		a := m.Ids(vg, vs, vd, 0.09, 0)
		b := m.Ids(vg, vd, vs, 0.09, 0)
		return math.Abs(a+b) <= 1e-12*(1+math.Abs(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestIdsMonotoneInDrain(t *testing.T) {
	// For fixed vg, vs, current is non-decreasing in vd — the property the
	// stack bisection solver relies on.
	m := NewMOSFET(NMOS, 0.3, 0.09)
	for _, vg := range []float64{0, 0.2, 0.5, 1.0} {
		prev := math.Inf(-1)
		for vd := 0.0; vd <= 1.0; vd += 0.01 {
			i := m.Ids(vg, 0, vd, 0.09, 0)
			if i < prev-1e-18 {
				t.Fatalf("vg=%g: current not monotone at vd=%g", vg, vd)
			}
			prev = i
		}
	}
}

func TestIdsZeroAtZeroVds(t *testing.T) {
	m := NewMOSFET(NMOS, 0.3, 0.09)
	for _, vg := range []float64{0, 0.5, 1} {
		for _, v := range []float64{0, 0.3, 1} {
			if i := m.Ids(vg, v, v, 0.09, 0); i != 0 {
				t.Errorf("vg=%g v=%g: Ids = %g, want 0", vg, v, i)
			}
		}
	}
}

func TestPMOSMirrorsNMOS(t *testing.T) {
	// A PMOS with the NMOS tech card mirrored should produce the same
	// magnitudes in the mirrored configuration.
	n := NewMOSFET(NMOS, 0.3, 0.09)
	p := MOSFET{Kind: PMOS, Tech: n.Tech, W: 0.3, LNominal: 0.09}
	vdd := n.Tech.Vdd
	// NMOS off: vg=0, vs=0, vd=vdd. PMOS off: vg=vdd, vs=vdd, vd=0.
	in := n.Ids(0, 0, vdd, 0.09, 0)
	ip := p.Ids(vdd, vdd, 0, 0.09, 0)
	if math.Abs(math.Abs(in)-math.Abs(ip)) > 1e-15 {
		t.Errorf("mirror mismatch: NMOS %g vs PMOS %g", in, ip)
	}
}

func TestDIBLIncreasesLeakage(t *testing.T) {
	m := NewMOSFET(NMOS, 0.3, 0.09)
	full := m.Ids(0, 0, m.Tech.Vdd, 0.09, 0)
	half := m.Ids(0, 0, m.Tech.Vdd/2, 0.09, 0)
	// More drain bias ⇒ lower Vt via DIBL ⇒ disproportionally more current:
	// full should exceed 2× half (the linear 1−e^{−Vds/vT} factor saturates).
	if full <= half {
		t.Fatalf("DIBL: full=%g ≤ half=%g", full, half)
	}
	noDIBL := m
	noDIBL.Tech.Eta = 0
	if m.Ids(0, 0, m.Tech.Vdd, 0.09, 0) <= noDIBL.Ids(0, 0, m.Tech.Vdd, 0.09, 0) {
		t.Errorf("η>0 should leak more than η=0 at full Vds")
	}
}

func TestEkvFLimits(t *testing.T) {
	// Subthreshold limit: F(u) → e^u for u ≪ 0 (relative error ~e^{u/2}).
	for _, u := range []float64{-10, -16, -20} {
		if got, want := ekvF(u), math.Exp(u); math.Abs(got-want)/want > 2.1*math.Exp(u/2) {
			t.Errorf("F(%g) = %g, want ≈ e^u = %g", u, got, want)
		}
	}
	// Strong-inversion limit: F(u) → u²/4 for u ≫ 0.
	for _, u := range []float64{50, 79, 81, 200} {
		if got, want := ekvF(u), u*u/4; math.Abs(got-want)/want > 0.05 {
			t.Errorf("F(%g) = %g, want ≈ u²/4 = %g", u, got, want)
		}
	}
	// Continuity across the u=80 branch.
	if d := math.Abs(ekvF(80-1e-9) - ekvF(80+1e-9)); d > 1e-6 {
		t.Errorf("branch discontinuity at u=80: %g", d)
	}
}
