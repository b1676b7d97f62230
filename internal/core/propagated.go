package core

import (
	"fmt"
	"math"

	"leakest/internal/netlist"
	"leakest/internal/placement"
)

// PropagatedTrueStats refines the O(n²) true-leakage computation with
// per-net signal probabilities propagated through the netlist, instead of
// the single uniform probability the high-level abstraction uses. Each
// gate's state distribution follows from its actual fanin probabilities,
// so both its effective moments and its spatially correlated sigma become
// gate-specific. Pairwise covariances use the simplified ρ_leak = ρ_L
// mapping (exact per-gate-pair state mixing would need a table per gate
// pair; §3.1.2 bounds the simplification below 2.8 %).
//
// gatePins supplies the per-gate pin-probability vectors, e.g. from
// netlist.PropagateProbabilities. The placed design is the one the model's
// spec was extracted from (ExtractSpec checked it).
func PropagatedTrueStats(m *Model, nl *netlist.Netlist, pl *placement.Placement, gatePins [][]float64) (Result, error) {
	n := len(nl.Gates)
	if len(gatePins) != n {
		return Result{}, fmt.Errorf("core: %d pin-probability vectors for %d gates", len(gatePins), n)
	}
	mc := m.Mode.usesMCMoments()
	mean := 0.0
	variance := 0.0
	corrSig := make([]float64, n)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for g, gate := range nl.Gates {
		cc, err := m.Lib.Cell(gate.Type)
		if err != nil {
			return Result{}, err
		}
		mu, sd, cs := cc.EffectiveStatsPins(gatePins[g], mc)
		mean += mu
		variance += sd * sd
		corrSig[g] = cs
		xs[g], ys[g] = pl.Pos(g)
	}
	corr := m.Proc.Prepare() // At is bitwise TotalCorr
	for a := 0; a < n; a++ {
		xa, ya, sa := xs[a], ys[a], corrSig[a]
		for b := a + 1; b < n; b++ {
			d := math.Hypot(xa-xs[b], ya-ys[b])
			rho := corr.At(d)
			if rho <= 0 {
				continue
			}
			if rho > 1 {
				rho = 1
			}
			variance += 2 * sa * corrSig[b] * rho
		}
	}
	return Result{
		Mean:   mean,
		Std:    math.Sqrt(variance),
		Method: "true-propagated",
		Note:   "per-net propagated signal probabilities, simplified correlation",
	}, nil
}
