// Package cells defines the standard-cell library used for leakage
// characterization: 62 cells spanning inverters and buffers of several drive
// strengths, NAND/NOR stacks up to 4 inputs, AND/OR compositions, complex
// AOI/OAI gates, XOR/XNOR, multiplexers, adders, latches, flip-flops and an
// SRAM bit cell — the same topology diversity as the commercial 90 nm
// library the paper characterizes (see DESIGN.md, Substitutions).
//
// A cell is a feed-forward list of static CMOS stages plus optional
// explicitly biased devices (for transmission gates and the SRAM cell whose
// node voltages are determined by a stored state rather than by stage
// logic). Sequential cells expose their internal state bits as extra
// "pseudo-inputs" so that, as in the paper, every cell is characterized for
// every input (and state) combination.
package cells

import (
	"fmt"

	"leakest/internal/circuit"
	"leakest/internal/device"
)

// Stage is one static CMOS stage: a pull-up network of PMOS between Vdd and
// the stage output, a dual pull-down network of NMOS between the output and
// ground, and the Boolean function the stage realizes over the cell's
// signal vector.
//
// A Stage with nil PUN and PDN is a pure derived signal: its Logic defines
// an internal node value (e.g. a latch storage node whose voltage follows a
// stored pseudo-state) without contributing stage leakage. Such nodes are
// referenced by gate pins of later stages and by the selectors of Extras.
type Stage struct {
	// PUN and PDN are the pull-up and pull-down networks. Gate pins index
	// the signal vector: 0..NumInputs-1 are cell inputs, NumInputs+k is the
	// output of stage k. Both nil for a derived signal.
	PUN, PDN *circuit.Network
	// Logic computes the stage output from the current signal values.
	Logic func(sig []bool) bool
}

// Cell is one library cell.
type Cell struct {
	// Name is the library cell name, e.g. "NAND2_X1".
	Name string
	// NumInputs counts the cell's inputs including any sequential
	// pseudo-state bits (documented per cell).
	NumInputs int
	// Stages lists the feed-forward CMOS stages.
	Stages []Stage
	// Extras lists explicitly biased devices (transmission gates, SRAM
	// core) whose leakage adds to the stage leakage.
	Extras []circuit.BiasedDevice
	// NumDevices is the total transistor count (stages + extras).
	NumDevices int
	// Vdd is the supply voltage (volts), shared by all devices.
	Vdd float64
	// Class tags the cell kind: "comb", "seq" or "sram".
	Class string
}

// NumStates returns the number of input/state combinations, 2^NumInputs.
func (c *Cell) NumStates() int { return 1 << uint(c.NumInputs) }

// SignalCount returns the length of the cell's signal vector.
func (c *Cell) SignalCount() int { return c.NumInputs + len(c.Stages) }

// Signals evaluates the full signal vector for the input state encoded in
// the bits of state (bit i is input i).
func (c *Cell) Signals(state uint) []bool {
	sig := make([]bool, 0, c.SignalCount())
	for i := 0; i < c.NumInputs; i++ {
		sig = append(sig, state&(1<<uint(i)) != 0)
	}
	for _, st := range c.Stages {
		sig = append(sig, st.Logic(sig))
	}
	return sig
}

// Leakage returns the total subthreshold leakage of the cell in state
// `state` at shared channel length l (µm) with optional per-device Vt
// offsets dvt (indexed by the cell's device order; nil for none).
//
// For each stage, only the OFF network carries current: if the stage output
// is high the pull-down network leaks from the output (at Vdd) to ground;
// if low, the pull-up leaks from Vdd to the output (at ground). The ON
// network has no voltage across it and contributes nothing. Explicitly
// biased extras are added afterwards.
func (c *Cell) Leakage(state uint, l float64, dvt []float64) float64 {
	if state >= uint(c.NumStates()) {
		panic(fmt.Sprintf("cells: state %d out of range for %s (%d inputs)", state, c.Name, c.NumInputs))
	}
	if l <= 0 {
		panic(fmt.Sprintf("cells: non-positive channel length %g", l))
	}
	sig := c.Signals(state)
	v := make([]float64, len(sig))
	for i, b := range sig {
		if b {
			v[i] = c.Vdd
		}
	}
	env := &circuit.Env{V: v, L: l, DVt: dvt}
	total := 0.0
	for i, st := range c.Stages {
		if st.PUN == nil { // derived signal: no hardware of its own
			continue
		}
		out := sig[c.NumInputs+i]
		if out {
			total += st.PDN.Current(c.Vdd, 0, env)
		} else {
			total += st.PUN.Current(c.Vdd, 0, env)
		}
	}
	for _, ex := range c.Extras {
		total += ex.Leakage(env)
	}
	return total
}

// finish assigns Vt indices to every network and extra, computes the device
// count, and validates stage wiring. Call exactly once after assembling the
// cell.
func (c *Cell) finish() *Cell {
	next := 0
	for i := range c.Stages {
		st := &c.Stages[i]
		if st.Logic == nil {
			panic(fmt.Sprintf("cells: %s stage %d has no logic", c.Name, i))
		}
		if (st.PUN == nil) != (st.PDN == nil) {
			panic(fmt.Sprintf("cells: %s stage %d has only one network", c.Name, i))
		}
		if st.PUN != nil {
			next = st.PUN.AssignVtIndices(next)
			next = st.PDN.AssignVtIndices(next)
		}
	}
	for i := range c.Extras {
		c.Extras[i].VtIdx = next
		next++
	}
	c.NumDevices = next
	if c.Vdd <= 0 {
		panic(fmt.Sprintf("cells: %s has no supply voltage", c.Name))
	}
	return c
}

// GateLeakage returns the total gate tunneling leakage of the cell in the
// given state at channel length l. It is zero unless gate leakage has been
// enabled on the cell's devices (see EnableGateLeakage).
func (c *Cell) GateLeakage(state uint, l float64) float64 {
	sig := c.Signals(state)
	v := make([]float64, len(sig))
	for i, b := range sig {
		if b {
			v[i] = c.Vdd
		}
	}
	env := &circuit.Env{V: v, L: l}
	total := 0.0
	for _, st := range c.Stages {
		if st.PUN == nil {
			continue
		}
		total += st.PUN.GateLeakage(c.Vdd, env)
		total += st.PDN.GateLeakage(c.Vdd, env)
	}
	for _, ex := range c.Extras {
		total += ex.GateLeakage(env)
	}
	return total
}

// TotalLeakage returns subthreshold plus gate leakage for the state.
func (c *Cell) TotalLeakage(state uint, l float64, dvt []float64) float64 {
	return c.Leakage(state, l, dvt) + c.GateLeakage(state, l)
}

// EnableGateLeakage sets the gate tunneling current density (A/µm²) on
// every device of every cell in the list, in place, and returns the list.
// Characterizing an enabled library captures the combined subthreshold +
// gate leakage in the same statistical framework — the gate-leakage
// ablation experiment quantifies the effect on full-chip variability.
func EnableGateLeakage(cellList []*Cell, jGate float64) []*Cell {
	set := func(m *device.MOSFET) { m.Tech.JGate = jGate }
	for _, c := range cellList {
		for i := range c.Stages {
			st := &c.Stages[i]
			if st.PUN != nil {
				st.PUN.MapDevices(set)
				st.PDN.MapDevices(set)
			}
		}
		for i := range c.Extras {
			c.Extras[i].Dev.Tech.JGate = jGate
		}
	}
	return cellList
}

// AtTemperature rescales every device's technology card from the 300 K
// reference to the given junction temperature (kelvin), in place, and
// returns the list. Characterizing the rescaled library captures the
// temperature dependence of the leakage statistics; see the temperature
// experiment and the thermal-runaway example.
func AtTemperature(cellList []*Cell, tempK float64) ([]*Cell, error) {
	var firstErr error
	apply := func(m *device.MOSFET) {
		card, err := m.Tech.AtTemperature(tempK)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		m.Tech = card
	}
	for _, c := range cellList {
		for i := range c.Stages {
			st := &c.Stages[i]
			if st.PUN != nil {
				st.PUN.MapDevices(apply)
				st.PDN.MapDevices(apply)
			}
		}
		for i := range c.Extras {
			card, err := c.Extras[i].Dev.Tech.AtTemperature(tempK)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			c.Extras[i].Dev.Tech = card
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return cellList, nil
}

// OutputProbability returns the probability that the cell's output (the
// last stage's signal) is 1, given independent per-pin 1-probabilities.
// Sequential pseudo-state pins take their entries in pinProbs like any
// other input (0.5 is the customary choice). The cell function is
// enumerated exactly over all 2^k input states.
func (c *Cell) OutputProbability(pinProbs []float64) (float64, error) {
	if len(pinProbs) != c.NumInputs {
		return 0, fmt.Errorf("cells: %s has %d inputs, got %d pin probabilities",
			c.Name, c.NumInputs, len(pinProbs))
	}
	for i, p := range pinProbs {
		if p < 0 || p > 1 {
			return 0, fmt.Errorf("cells: %s pin %d probability %g outside [0, 1]", c.Name, i, p)
		}
	}
	if len(c.Stages) == 0 {
		// Input-less storage cells (SRAM) have no logic output.
		return 0, fmt.Errorf("cells: %s has no output stage", c.Name)
	}
	pOut := 0.0
	for s := uint(0); s < uint(c.NumStates()); s++ {
		w := 1.0
		for i := 0; i < c.NumInputs; i++ {
			if s&(1<<uint(i)) != 0 {
				w *= pinProbs[i]
			} else {
				w *= 1 - pinProbs[i]
			}
		}
		if w == 0 {
			continue
		}
		sig := c.Signals(s)
		if sig[len(sig)-1] {
			pOut += w
		}
	}
	return pOut, nil
}
