// Package circuit evaluates the leakage of CMOS transistor networks.
//
// A standard cell's pull-up and pull-down networks are series/parallel
// compositions of MOSFETs. Given the input state, the network between the
// output and one rail is OFF and carries the cell's subthreshold leakage;
// the intermediate node voltages of series stacks settle where the device
// currents equalize, producing the well-known stack effect (an OFF stack of
// two leaks roughly an order of magnitude less than a single OFF device).
//
// The solver exploits monotonicity of the EKV-style device model: the
// current through any series/parallel network is strictly increasing in the
// top-terminal voltage and decreasing in the bottom-terminal voltage, so
// intermediate nodes can be found by nested bisection. An outer bisection on
// the shared branch current handles arbitrarily deep series chains without
// exponential nesting.
package circuit

import (
	"fmt"
	"math"

	"leakest/internal/device"
)

// netKind discriminates the network node types.
type netKind int

const (
	kindDevice netKind = iota
	kindSeries
	kindParallel
)

// Network is a series/parallel composition of MOSFETs. The zero value is
// not usable; construct with Dev, Series, or Parallel.
type Network struct {
	kind     netKind
	dev      device.MOSFET // for kindDevice
	gatePin  int           // signal index driving the gate (kindDevice)
	vtIdx    int           // per-device Vt-offset index, assigned by AssignVtIndices
	children []*Network
}

// Dev returns a leaf network: a single MOSFET whose gate is driven by the
// signal with index gatePin in the evaluation environment.
func Dev(m device.MOSFET, gatePin int) *Network {
	return &Network{kind: kindDevice, dev: m, gatePin: gatePin, vtIdx: -1}
}

// Series composes children top-to-bottom in series. A single child is
// returned unwrapped.
func Series(children ...*Network) *Network {
	if len(children) == 0 {
		panic("circuit: Series of zero children")
	}
	if len(children) == 1 {
		return children[0]
	}
	return &Network{kind: kindSeries, children: children}
}

// Parallel composes children in parallel. A single child is returned
// unwrapped.
func Parallel(children ...*Network) *Network {
	if len(children) == 0 {
		panic("circuit: Parallel of zero children")
	}
	if len(children) == 1 {
		return children[0]
	}
	return &Network{kind: kindParallel, children: children}
}

// AssignVtIndices walks the network and assigns consecutive per-device
// Vt-offset indices starting at next, returning the next unused index.
// Call once per cell after assembling all of its networks.
func (n *Network) AssignVtIndices(next int) int {
	switch n.kind {
	case kindDevice:
		n.vtIdx = next
		return next + 1
	default:
		for _, c := range n.children {
			next = c.AssignVtIndices(next)
		}
		return next
	}
}

// Env is the evaluation environment of one leakage query: the signal
// voltages (cell inputs and internal stage outputs), the shared channel
// length, and optional per-device threshold-voltage offsets.
type Env struct {
	// V holds the signal voltages indexed by gate pin.
	V []float64
	// L is the channel length shared by every device in the cell (the
	// paper's within-cell full correlation assumption), in µm.
	L float64
	// DVt holds per-device Vt offsets indexed by vtIdx; nil means zero.
	DVt []float64
}

func (e *Env) dvt(idx int) float64 {
	if e.DVt == nil || idx < 0 || idx >= len(e.DVt) {
		return 0
	}
	return e.DVt[idx]
}

// Bisection iteration counts. Voltage bisection halves a ≤2 V interval, so
// 36 iterations reach ~3·10⁻¹¹ V; current bisection runs in linear space
// over [0, Imax] and 52 iterations leave the interval at Imax·2⁻⁵², which is
// below one part in 10⁹ even relative to a stack current two decades under
// the bound. These counts dominate characterization runtime.
const (
	voltIters = 36
	currIters = 52
)

// Current returns the current flowing from the top terminal (at vt) to the
// bottom terminal (at vb) through the network, in amperes. It requires
// vt ≥ vb and returns a non-negative value.
func (n *Network) Current(vt, vb float64, env *Env) float64 {
	if vt < vb {
		panic(fmt.Sprintf("circuit: Current called with vt=%g < vb=%g", vt, vb))
	}
	if vt == vb {
		return 0
	}
	switch n.kind {
	case kindDevice:
		return n.deviceCurrent(vt, vb, env)
	case kindParallel:
		total := 0.0
		for _, c := range n.children {
			total += c.Current(vt, vb, env)
		}
		return total
	default: // kindSeries
		return n.seriesCurrent(vt, vb, env)
	}
}

// deviceCurrent evaluates the leaf MOSFET between (vt, vb). For NMOS the
// drain is the top terminal; for PMOS the source is the top terminal and
// the mirrored device model yields a negative value that is negated here.
func (n *Network) deviceCurrent(vt, vb float64, env *Env) float64 {
	vg := env.V[n.gatePin]
	i := n.dev.Ids(vg, vb, vt, env.L, env.dvt(n.vtIdx))
	if n.dev.Kind == device.PMOS {
		return -i
	}
	return i
}

// seriesCurrent solves a series chain by outer bisection on the shared
// current I. For a candidate I, the intermediate node voltages are
// propagated bottom-up: each child's top voltage is the value at which it
// carries exactly I given its bottom voltage. The residual (computed top
// voltage minus actual vt) is monotone increasing in I.
func (n *Network) seriesCurrent(vt, vb float64, env *Env) float64 {
	// Upper bound: each child alone across the full span carries at least
	// the chain current.
	iMax := math.Inf(1)
	for _, c := range n.children {
		if ic := c.Current(vt, vb, env); ic < iMax {
			iMax = ic
		}
	}
	if iMax <= 0 {
		return 0
	}
	// residual(I) = (voltage needed at top to carry I) − vt.
	vCap := vt + 1 // allow overshoot during the search
	// children[0] is the top of the chain, so the bottom-up propagation
	// walks the slice in reverse.
	residual := func(i float64) float64 {
		v := vb
		for ci := len(n.children) - 1; ci >= 0; ci-- {
			v = n.children[ci].solveTopVoltage(v, vCap, i, env)
			if v >= vCap {
				return vCap - vt // saturated: I is certainly too large
			}
		}
		return v - vt
	}
	lo, hi := 0.0, iMax
	if residual(hi) < 0 {
		// Degenerate (round-off near fully-on chains): the bound itself is
		// the answer within tolerance.
		return iMax
	}
	for iter := 0; iter < currIters; iter++ {
		mid := 0.5 * (lo + hi)
		if residual(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// solveTopVoltage returns the top-terminal voltage v ∈ [vb, vCap] at which
// the child network carries current i given bottom voltage vb. The child
// current is increasing in v, so bisection applies. If even vCap cannot
// carry i, vCap is returned.
func (n *Network) solveTopVoltage(vb, vCap, i float64, env *Env) float64 {
	if n.Current(vCap, vb, env) < i {
		return vCap
	}
	lo, hi := vb, vCap
	for iter := 0; iter < voltIters; iter++ {
		mid := 0.5 * (lo + hi)
		if n.Current(mid, vb, env) < i {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// BiasedDevice is a MOSFET with explicitly specified terminal connections,
// used for structures outside the feed-forward stage model (e.g. the SRAM
// cell's access transistors, transmission gates with known node states).
// Each terminal voltage is produced from the signal vector by a selector.
type BiasedDevice struct {
	Dev device.MOSFET
	// VtIdx indexes the per-device Vt offset; assign alongside networks.
	VtIdx int
	// Gate, Source, Drain produce the terminal voltages from the signal
	// voltage vector.
	Gate, Source, Drain func(v []float64) float64
}

// Leakage returns the magnitude of the device current under the bias.
func (b BiasedDevice) Leakage(env *Env) float64 {
	vg := b.Gate(env.V)
	vs := b.Source(env.V)
	vd := b.Drain(env.V)
	return math.Abs(b.Dev.Ids(vg, vs, vd, env.L, env.dvt(b.VtIdx)))
}

// Rail returns a selector producing the constant voltage v.
func Rail(v float64) func([]float64) float64 {
	return func([]float64) float64 { return v }
}

// Sig returns a selector producing the voltage of signal idx.
func Sig(idx int) func([]float64) float64 {
	return func(v []float64) float64 { return v[idx] }
}

// GateLeakage returns the total gate tunneling current of every device in
// the network, using the device gate voltages from the environment and the
// nearest rail as the source-side reference (ground for NMOS, Vdd for
// PMOS — exact for on devices, conservative for stack-internal nodes). It
// is zero unless the technology card enables gate leakage.
func (n *Network) GateLeakage(vdd float64, env *Env) float64 {
	switch n.kind {
	case kindDevice:
		vs := 0.0
		if n.dev.Kind == device.PMOS {
			vs = vdd
		}
		return n.dev.GateLeak(env.V[n.gatePin], vs, env.L)
	default:
		total := 0.0
		for _, c := range n.children {
			total += c.GateLeakage(vdd, env)
		}
		return total
	}
}

// GateLeakage returns the gate tunneling current of the biased device.
func (b BiasedDevice) GateLeakage(env *Env) float64 {
	return b.Dev.GateLeak(b.Gate(env.V), b.Source(env.V), env.L)
}

// MapDevices applies f to every MOSFET in the network (in place), allowing
// technology-card adjustments such as enabling gate leakage after a cell
// has been assembled.
func (n *Network) MapDevices(f func(*device.MOSFET)) {
	if n.kind == kindDevice {
		f(&n.dev)
		return
	}
	for _, c := range n.children {
		c.MapDevices(f)
	}
}
