package main

import (
	"context"
	"fmt"
	"math"
	"strings"

	"leakest"
	"leakest/internal/core"
	"leakest/internal/telemetry"
)

// The truth workload: seeded random circuits of 1k–4k gates, written as
// .bench text in setup. Each op parses, places, computes the O(n²) true
// leakage and the O(n) linear estimate of the placed netlist. The classed
// pair sum dominates the large circuits, parsing and placement the small
// ones; chipmc, the stream reader and the server idle.

const truthCircuits = 64

type truthCkt struct {
	name string
	n    int
	seed int64 // placement seed
	text string
}

// truthPlan is the seed's cycle: the circuits (without their text) and
// the order they run in.
func truthPlan(seed int64) ([]truthCkt, []int) {
	rng := newRNG(seed, "truth")
	var ckts []truthCkt
	var order []int
	for j, n := range logSizes(truthCircuits, 1000, 4000) {
		ckts = append(ckts, truthCkt{name: fmt.Sprintf("t%d", j), n: n, seed: seed*1000 + int64(j)})
		order = append(order, j)
	}
	return ckts, balance(rng, order)
}

type truthWL struct {
	b     *bench
	lib   *leakest.Library
	est   *leakest.Estimator
	ckts  []truthCkt
	cycle []int
	errs  []float64 // linear-vs-truth σ errors, filled by check
}

type truthOut struct {
	ckt                  int
	truthSigma, linSigma float64
	truthMean, linMean   float64
}

func (w *truthWL) clients() int   { return 1 }
func (w *truthWL) tailQ() float64 { return 0.95 }
func (w *truthWL) close()         {}

func (w *truthWL) setup(ctx context.Context) error {
	lib, err := characterize(ctx)
	if err != nil {
		return err
	}
	w.lib = lib
	if w.est, err = newEstimator(lib); err != nil {
		return err
	}
	hist, _, err := designHist(w.b.seed, "truth/hist")
	if err != nil {
		return err
	}
	w.ckts, w.cycle = truthPlan(w.b.seed)
	for j := range w.ckts {
		c := &w.ckts[j]
		nl, err := leakest.RandomCircuit(lib, c.seed, c.name, c.n, max(8, c.n/16), hist)
		if err != nil {
			return err
		}
		var sb strings.Builder
		if err := leakest.WriteBench(&sb, nl); err != nil {
			return err
		}
		c.text = sb.String()
	}
	return nil
}

func (w *truthWL) do(ctx context.Context, i int) (any, error) {
	j := w.cycle[i%len(w.cycle)]
	c := w.ckts[j]
	ctx, end := opSpan(ctx, "truth", c.n)
	defer end()
	endRead := telemetry.StartSpan(ctx, "netlist.read_bench")
	nl, err := leakest.ReadBench(strings.NewReader(c.text), c.name)
	endRead()
	if err != nil {
		return nil, err
	}
	endPlace := telemetry.StartSpan(ctx, "placement.place")
	pl, err := leakest.AutoPlace(nl, c.seed)
	endPlace()
	if err != nil {
		return nil, err
	}
	t, err := w.est.TrueLeakageContext(ctx, nl, pl, 0.5)
	if err != nil {
		return nil, err
	}
	// EstimateNetlist(Linear), with the op's context.
	d, err := w.est.ExtractDesign(nl, pl, 0.5)
	if err != nil {
		return nil, err
	}
	l, err := w.est.EstimateContext(ctx, d, leakest.Linear)
	if err != nil {
		return nil, err
	}
	telemetry.SpanAttrInt(ctx, "lags", int64(l.GridRows*l.GridCols-1))
	return truthOut{ckt: j, truthSigma: t.Std, linSigma: l.Std, truthMean: t.Mean, linMean: l.Mean}, nil
}

// truthRef is a circuit's references, computed after the timed phase.
type truthRef struct {
	lin                   leakest.Result // independent linear estimate
	exactMean, exactSigma float64        // independent O(n²) pair sum
}

// reference re-reads and re-places circuit c and computes its references.
func (w *truthWL) reference(ctx context.Context, est *leakest.Estimator, c truthCkt) (truthRef, error) {
	var r truthRef
	nl, err := leakest.ReadBench(strings.NewReader(c.text), c.name)
	if err != nil {
		return r, err
	}
	pl, err := leakest.AutoPlace(nl, c.seed)
	if err != nil {
		return r, err
	}
	d, err := est.ExtractDesign(nl, pl, 0.5)
	if err != nil {
		return r, err
	}
	if r.lin, err = est.EstimateContext(ctx, d, leakest.Linear); err != nil {
		return r, err
	}
	r.exactMean, r.exactSigma, err = exactTruth(ctx, w.lib, nl, pl)
	return r, err
}

// exactTruth is the benchmark's own O(n²) pair sum of a placed netlist's
// leakage moments (Eq. 15), written independently of core's classed pair
// loop: one serial pass over the gate pairs, the correlation from the
// process at the pair's distance and the covariance from the model's pair
// splines, memoized per (type pair, row lag, column lag) because the
// distance of two sites depends only on their lag.
func exactTruth(ctx context.Context, lib *leakest.Library, nl *leakest.Netlist, pl *leakest.Placement) (mean, sigma float64, err error) {
	spec, err := core.ExtractSpec(nl, pl, 0.5)
	if err != nil {
		return 0, 0, err
	}
	m, err := core.NewModelCtx(ctx, lib, lib.Process, spec, core.Analytic)
	if err != nil {
		return 0, 0, err
	}
	n := len(nl.Gates)
	typeIdx := map[string]int{}
	var types []string
	gt := make([]int, n)
	xs, ys := make([]float64, n), make([]float64, n)
	rs, cs := make([]int, n), make([]int, n)
	variance := 0.0
	for g, gate := range nl.Gates {
		mu, s, err := m.CellStats(gate.Type)
		if err != nil {
			return 0, 0, err
		}
		mean += mu
		variance += s * s
		t, ok := typeIdx[gate.Type]
		if !ok {
			t = len(types)
			typeIdx[gate.Type] = t
			types = append(types, gate.Type)
		}
		gt[g] = t
		xs[g], ys[g] = pl.Pos(g)
		rs[g], cs[g] = pl.RowCol(g)
	}
	nt, rows, cols := len(types), pl.Grid.Rows, pl.Grid.Cols
	memo := make([]float64, nt*nt*rows*cols)
	known := make([]bool, len(memo))
	for a := 0; a < n; a++ {
		row := 0.0
		for b := a + 1; b < n; b++ {
			dr, dc := rs[a]-rs[b], cs[a]-cs[b]
			k := ((gt[a]*nt+gt[b])*rows+max(dr, -dr))*cols + max(dc, -dc)
			if !known[k] {
				cov := 0.0
				if rho := m.Proc.TotalCorr(math.Hypot(xs[a]-xs[b], ys[a]-ys[b])); rho > 0 {
					if cov, err = m.PairCovAtCorr(types[gt[a]], types[gt[b]], rho); err != nil {
						return 0, 0, err
					}
				}
				memo[k], known[k] = cov, true
			}
			if memo[k] > 0 {
				row += 2 * memo[k]
			}
		}
		variance += row
	}
	return mean, math.Sqrt(variance), nil
}

// check holds the truth mean and σ to the benchmark's own exact pair sum
// (1e-9: the two sums add the same terms in a different order), the linear
// σ to an independent linear estimate of the same placed netlist
// (exactTol) and to the truth within the recorded Fig. 6 (E4) envelope at
// the circuit's size, and the linear mean to the exact mean.
func (w *truthWL) check(ctx context.Context, outs []opOut, p perturb) []bool {
	const sumTol = 1e-9
	est, err := leakest.NewEstimator(w.lib, nil)
	if err != nil {
		return make([]bool, len(outs))
	}
	est.Workers = refProcs
	refs := map[int]truthRef{}
	ok := make([]bool, len(outs))
	w.errs = w.errs[:0]
	for k, o := range outs {
		out, good := o.out.(truthOut)
		if o.err != nil || !good {
			continue
		}
		c := w.ckts[out.ckt]
		r, seen := refs[out.ckt]
		if !seen {
			if r, err = w.reference(ctx, est, c); err != nil {
				ok[k] = failf(o.i, "reference: %v", err)
				continue
			}
			refs[out.ckt] = r
		}
		lin, truth := out.linSigma*p.scale("sigma"), out.truthSigma*p.scale("truth")
		dev := relDiff(lin, truth)
		w.errs = append(w.errs, 100*dev)
		ok[k] = true
		if relDiff(truth, r.exactSigma) > sumTol || relDiff(out.truthMean, r.exactMean) > sumTol {
			ok[k] = failf(o.i, "truth (%g, %g) differs from the exact pair sum (%g, %g)", out.truthMean, truth, r.exactMean, r.exactSigma)
		}
		if relDiff(lin, r.lin.Std) > exactTol {
			ok[k] = failf(o.i, "linear σ %g differs from reference %g", lin, r.lin.Std)
		}
		if e := envelope("e4.envelope", c.n); dev > e {
			ok[k] = failf(o.i, "linear σ %g vs truth %g: %.3g beyond envelope %g", lin, truth, dev, e)
		}
		if relDiff(out.linMean, r.exactMean) > sumTol {
			ok[k] = failf(o.i, "linear mean %g differs from the exact mean %g", out.linMean, r.exactMean)
		}
	}
	return ok
}

func (w *truthWL) layerExtras([]opOut) map[string]float64 {
	return map[string]float64{"core.sigma_err_pct": mean(w.errs)}
}
