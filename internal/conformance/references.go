package conformance

import (
	"math"

	"leakest/internal/core"
	"leakest/internal/netlist"
	"leakest/internal/placement"
	"leakest/internal/quad"
)

// This file holds the independent reference implementations the harness
// compares the production estimators against. Each one recomputes the same
// quantity from the public model API with a deliberately different
// algorithm — a brute-force pair sum instead of the distance regrouping, a
// serial loop instead of the sharded pool, doubled quadrature resolution —
// so a bug in a production shortcut cannot cancel out of both sides.

// bruteStd evaluates Eq. 15 directly on the full rows×cols site grid: the
// O(S²) pairwise sum the linear method's distance regrouping (Eq. 17)
// claims to equal exactly. Full-occupancy fixtures keep S = N, so no
// occupancy scaling enters on either side.
func bruteStd(m *core.Model, rows, cols int) float64 {
	dw := m.Spec.W / float64(cols)
	dh := m.Spec.H / float64(rows)
	s := rows * cols
	off := 0.0
	for a := 0; a < s; a++ {
		ra, ca := a/cols, a%cols
		for b := a + 1; b < s; b++ {
			rb, cb := b/cols, b%cols
			d := math.Hypot(float64(ca-cb)*dw, float64(ra-rb)*dh)
			off += 2 * m.CovAtCorr(m.Proc.TotalCorr(d))
		}
	}
	return math.Sqrt(float64(s)*m.RGVariance() + off)
}

// integral2DRefStd evaluates the Eq. 20 integral with the panel density
// doubled relative to the production estimator. Agreement to ~0.1 % shows
// the production quadrature resolved the integrand; any error in the
// integrand itself appears identically on both sides and is caught by the
// separate integral-vs-linear envelope check. It also referees the polar
// estimator, which integrates the same Eq. 20 in polar coordinates: a
// wrong angular weight cannot cancel out of a Cartesian quadrature.
func integral2DRefStd(m *core.Model) float64 {
	w, h := m.Spec.W, m.Spec.H
	n := float64(m.Spec.N)
	area := w * h
	integrand := func(x, y float64) float64 {
		return (w - x) * (h - y) * m.CovAtCorr(m.Proc.TotalCorr(math.Hypot(x, y)))
	}
	lam := m.Proc.EffectiveRange(0.1)
	if lam <= 0 {
		lam = math.Max(w, h)
	}
	panels := func(extent float64) int {
		p := int(math.Ceil(8 * extent / lam))
		if p < 12 {
			p = 12
		}
		if p > 96 {
			p = 96
		}
		return p
	}
	integral := quad.Integrate2D(integrand, 0, w, 0, h, panels(w), panels(h))
	variance := 4 * n * n / (area * area) * integral
	if variance < 0 {
		variance = 0
	}
	return math.Sqrt(variance)
}

// serialTruthRef recomputes TrueStats with a plain serial double loop over
// the public pairwise API — no sharding, no ticker, no spline-cache
// plumbing.
func serialTruthRef(m *core.Model, nl *netlist.Netlist, pl *placement.Placement) (mean, std float64, err error) {
	return serialPairSum(m, nl, pl, func(_, _ int, d float64) float64 { return m.Proc.TotalCorr(d) })
}

// serialPairSum evaluates Eq. 15 over every gate pair of a placed netlist
// with the pair correlation rho(a, b, distance), accumulating per row in
// index order. TrueStats adds the same terms grouped by type pair and
// lag, so the two agree to a few ulps: ULP-class under Exact().
func serialPairSum(m *core.Model, nl *netlist.Netlist, pl *placement.Placement,
	rho func(a, b int, d float64) float64) (mean, std float64, err error) {
	n := len(nl.Gates)
	variance := 0.0
	xs := make([]float64, n)
	ys := make([]float64, n)
	for g, gate := range nl.Gates {
		mu, sigma, cerr := m.CellStats(gate.Type)
		if cerr != nil {
			return 0, 0, cerr
		}
		mean += mu
		variance += sigma * sigma
		xs[g], ys[g] = pl.Pos(g)
	}
	for a := 0; a < n; a++ {
		row := 0.0
		for b := a + 1; b < n; b++ {
			r := rho(a, b, math.Hypot(xs[a]-xs[b], ys[a]-ys[b]))
			if r <= 0 {
				continue
			}
			cov, perr := m.PairCovAtCorr(nl.Gates[a].Type, nl.Gates[b].Type, r)
			if perr != nil {
				return 0, 0, perr
			}
			if cov > 0 {
				row += 2 * cov
			}
		}
		variance += row
	}
	return mean, math.Sqrt(variance), nil
}
