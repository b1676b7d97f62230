// Package device implements the synthetic 90 nm-class MOSFET model that
// drives cell leakage characterization. The paper used a proprietary
// commercial 90 nm kit with SPICE; we substitute a single-piece EKV-style
// analytic model that is smooth and monotone from deep subthreshold through
// strong inversion, which is exactly what the transistor-stack solver in
// internal/circuit requires (see DESIGN.md, Substitutions).
//
// The channel current of an NMOS device is
//
//	I = ISpec·(W/L)·[F((Vp−Vs)/vT) − F((Vp−Vd)/vT)],  F(u) = ln²(1+e^{u/2})
//	Vp = (Vg − Vth)/n,   Vth = Vt0 − Kroll·e^{−L/Lt} − η·(Vd−Vs) + ΔVt
//
// In subthreshold F(u) → e^u, recovering the textbook exponential law with
// slope factor n and DIBL η; in strong inversion F(u) → (u/2)², giving a
// quadratic on-current. The exponential Vt roll-off term makes leakage an
// exponential-like function of channel length L — the physical origin of the
// paper's a·e^(bL+cL²) fit. PMOS devices are handled by voltage mirroring.
package device

import (
	"fmt"
	"math"
)

// Kind discriminates NMOS from PMOS devices.
type Kind int

// Device kinds.
const (
	NMOS Kind = iota
	PMOS
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == PMOS {
		return "PMOS"
	}
	return "NMOS"
}

// Tech holds the technology parameters shared by all devices of one kind.
type Tech struct {
	// ISpec is the specific current prefactor in amperes (scaled by W/L).
	ISpec float64
	// N is the subthreshold slope factor (typically 1.2–1.6).
	N float64
	// Vt0 is the long-channel threshold voltage magnitude, volts.
	Vt0 float64
	// Kroll and Lt parameterize the Vt roll-off ΔVth = −Kroll·e^(−L/Lt):
	// shorter channels have exponentially lower Vt, hence exponentially
	// higher leakage. Lt is in µm.
	Kroll, Lt float64
	// Eta is the DIBL coefficient (V of Vt reduction per V of Vds).
	Eta float64
	// JGate is the gate tunneling current density at full gate drive, in
	// A/µm² of gate area; 0 (the default) disables gate leakage. See
	// gateleak.go.
	JGate float64
	// VT is the thermal voltage kT/q, volts.
	VT float64
	// Vdd is the supply voltage, volts.
	Vdd float64
}

// Default90nmTech returns the synthetic 90 nm-class technology card:
// 1.0 V supply, Vt ≈ 0.29 V at nominal L = 0.09 µm, subthreshold swing
// ≈ 86 mV/dec, and a roll-off strength giving dVt/dL ≈ −2.6 V/µm at
// nominal L, i.e. roughly 10 mV of Vt per nanometre of channel length —
// representative of published 90 nm data.
func Default90nmTech(kind Kind) Tech {
	t := Tech{
		ISpec: 3.0e-6,
		N:     1.4,
		Vt0:   0.395,
		Kroll: 1.0,
		Lt:    0.04,
		Eta:   0.08,
		VT:    0.0259,
		Vdd:   1.0,
	}
	if kind == PMOS {
		// PMOS: lower mobility → lower specific current; slightly higher |Vt|.
		t.ISpec = 1.2e-6
		t.Vt0 = 0.42
	}
	return t
}

// Validate checks the technology card for physical sanity.
func (t Tech) Validate() error {
	switch {
	case t.ISpec <= 0:
		return fmt.Errorf("device: ISpec %g must be positive", t.ISpec)
	case t.N < 1:
		return fmt.Errorf("device: slope factor n = %g must be ≥ 1", t.N)
	case t.Vt0 <= 0 || t.Vt0 >= t.Vdd:
		return fmt.Errorf("device: Vt0 = %g outside (0, Vdd=%g)", t.Vt0, t.Vdd)
	case t.Lt <= 0:
		return fmt.Errorf("device: roll-off length Lt = %g must be positive", t.Lt)
	case t.VT <= 0:
		return fmt.Errorf("device: thermal voltage %g must be positive", t.VT)
	case t.Vdd <= 0:
		return fmt.Errorf("device: Vdd %g must be positive", t.Vdd)
	case t.Eta < 0:
		return fmt.Errorf("device: DIBL η = %g must be non-negative", t.Eta)
	case t.JGate < 0:
		return fmt.Errorf("device: gate current density %g must be non-negative", t.JGate)
	}
	return nil
}

// Vth returns the effective threshold voltage at channel length l (µm),
// drain-source voltage vds ≥ 0, and random per-device offset dvt.
func (t Tech) Vth(l, vds, dvt float64) float64 {
	return t.Vt0 - t.Kroll*math.Exp(-l/t.Lt) - t.Eta*vds + dvt
}

// ekvF is the EKV interpolation function F(u) = ln²(1 + e^{u/2}), evaluated
// stably for large |u|.
func ekvF(u float64) float64 {
	if u > 80 {
		// ln(1+e^{u/2}) ≈ u/2 for large u.
		return u * u / 4
	}
	ln := math.Log1p(math.Exp(u / 2))
	return ln * ln
}

// MOSFET is a single transistor instance: a technology card plus geometry.
type MOSFET struct {
	Kind Kind
	Tech Tech
	// W and LNominal are the drawn width and nominal channel length in µm.
	W, LNominal float64
}

// NewMOSFET builds a device with the default technology for its kind.
func NewMOSFET(kind Kind, w, l float64) MOSFET {
	return MOSFET{Kind: kind, Tech: Default90nmTech(kind), W: w, LNominal: l}
}

// Ids returns the drain current in amperes for terminal voltages vg, vs, vd
// (volts, referenced to ground), channel length l (µm) and per-device Vt
// offset dvt (volts). Positive current flows drain→source for NMOS.
//
// For a PMOS device the calculation mirrors about Vdd: the PMOS conducts
// when its gate is low and its "source" is the high terminal.
func (m MOSFET) Ids(vg, vs, vd, l, dvt float64) float64 {
	t := m.Tech
	if m.Kind == PMOS {
		// Mirror all voltages about Vdd and treat as NMOS; current sign is
		// preserved as magnitude flowing source→drain in the PMOS sense.
		vg, vs, vd = t.Vdd-vg, t.Vdd-vs, t.Vdd-vd
	}
	// Orient so vd ≥ vs; the channel is symmetric, with DIBL driven by the
	// actual drain-source magnitude.
	sign := 1.0
	if vd < vs {
		vs, vd = vd, vs
		sign = -1
	}
	vth := t.Vth(l, vd-vs, dvt)
	vp := (vg - vth) / t.N
	fwd := ekvF((vp - vs) / t.VT)
	rev := ekvF((vp - vd) / t.VT)
	return sign * t.ISpec * (m.W / l) * (fwd - rev)
}

// OffLeakage returns the subthreshold leakage magnitude of the device when
// fully off with the full supply across it: gate at the off rail, source at
// the off rail, drain at the opposite rail.
func (m MOSFET) OffLeakage(l, dvt float64) float64 {
	if m.Kind == PMOS {
		// Gate at Vdd, source at Vdd, drain at 0.
		return math.Abs(m.Ids(m.Tech.Vdd, m.Tech.Vdd, 0, l, dvt))
	}
	// Gate at 0, source at 0, drain at Vdd.
	return math.Abs(m.Ids(0, 0, m.Tech.Vdd, l, dvt))
}
