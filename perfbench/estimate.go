package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"leakest"
	"leakest/internal/telemetry"
)

// The estimate workload: early-mode designs of 1e5–3e6 gates, each
// estimated by the O(n) linear method, a tiled linear estimate (2–8 tiles
// per axis) and one of the O(1) integrals (Eq. 20 or Eqs. 25–26), plus
// leakest-stream placed designs of 1e5–1e6 gates through EstimateStream.
// core and netlist do the work; truth, chipmc and the server idle.

const (
	estDesigns = 32 // histogram designs per cycle
	estStreams = 8  // stream files per cycle
	// estSitePitch is the stream designs' site pitch in µm.
	estSitePitch = 2.0
)

type estOp struct {
	kind  string // linear | integral | polar | tiled | stream
	idx   int    // design or stream index
	tiles int
}

type estStream struct {
	path   string
	tiles  int
	rows   int
	cols   int
	design leakest.Design // the monolithic design the stream describes
}

// estimatePlan is the seed's cycle: its designs, its stream designs and
// its op order.
func estimatePlan(seed int64) ([]leakest.Design, []estStream, []estOp, error) {
	rng := newRNG(seed, "estimate")
	hist, _, err := designHist(seed, "estimate/hist")
	if err != nil {
		return nil, nil, nil, err
	}
	var designs []leakest.Design
	var linear, tiled, integral, polar, stream []estOp
	for j, n := range logSizes(estDesigns, 1e5, 3e6) {
		// Dies of 4–8 mm keep the correlation range (4 mm) inside the
		// die, which the polar integral requires.
		side := 4000 * math.Pow(float64(n)/1e5, 0.2)
		designs = append(designs, leakest.Design{Hist: hist, N: n, W: side, H: side, SignalProb: 0.5})
		linear = append(linear, estOp{kind: "linear", idx: j})
		tiled = append(tiled, estOp{kind: "tiled", idx: j, tiles: rankTiles(j, estDesigns, 2, 8)})
		if j%2 == 0 {
			integral = append(integral, estOp{kind: "integral", idx: j})
		} else {
			polar = append(polar, estOp{kind: "polar", idx: j})
		}
	}
	var streams []estStream
	for k, n := range logSizes(estStreams, 1e5, 1e6) {
		side := int(math.Ceil(math.Sqrt(float64(n) / 0.9)))
		s := estStream{tiles: rankTiles(k, estStreams, 2, 8), rows: side, cols: side}
		counts := make(map[string]float64, len(cellNames))
		for c := range cellNames {
			// WriteSyntheticStream assigns types round-robin.
			counts[cellNames[c]] = float64(n / len(cellNames))
			if c < n%len(cellNames) {
				counts[cellNames[c]]++
			}
		}
		h, err := leakest.NewHistogram(counts)
		if err != nil {
			return nil, nil, nil, err
		}
		s.design = leakest.Design{Hist: h, N: n, W: float64(side) * estSitePitch, H: float64(side) * estSitePitch, SignalProb: 0.5}
		streams = append(streams, s)
		stream = append(stream, estOp{kind: "stream", idx: k})
	}
	return designs, streams, balance(rng, linear, tiled, integral, polar, stream), nil
}

type estimateWL struct {
	b       *bench
	lib     *leakest.Library
	est     *leakest.Estimator
	designs []leakest.Design
	streams []estStream
	cycle   []estOp
	errs    []float64 // O(1)-method σ errors vs linear, filled by check
}

type estOut struct {
	op    estOp
	sigma float64
	mean  float64
}

func (w *estimateWL) clients() int     { return 1 }
func (w *estimateWL) tailQ() float64   { return 0.95 }
func (w *estimateWL) close()           {}
func (w *estimateWL) opAt(i int) estOp { return w.cycle[i%len(w.cycle)] }

func (w *estimateWL) setup(ctx context.Context) error {
	lib, err := characterize(ctx)
	if err != nil {
		return err
	}
	w.lib = lib
	if w.est, err = newEstimator(lib); err != nil {
		return err
	}
	if w.designs, w.streams, w.cycle, err = estimatePlan(w.b.seed); err != nil {
		return err
	}
	for k := range w.streams {
		s := &w.streams[k]
		s.path = filepath.Join(w.b.dataDir, fmt.Sprintf("stream-%d.lks", k))
		f, err := os.Create(s.path)
		if err != nil {
			return err
		}
		err = leakest.WriteSyntheticStream(f, fmt.Sprintf("s%d", k), s.rows, s.cols,
			estSitePitch, estSitePitch, s.tiles, cellNames, s.design.N)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

var estMethods = map[string]leakest.Method{
	"linear": leakest.Linear, "integral": leakest.Integral2D,
	"polar": leakest.Polar, "tiled": leakest.Linear,
}

func (w *estimateWL) do(ctx context.Context, i int) (any, error) {
	op := w.opAt(i)
	var n int
	if op.kind == "stream" {
		n = w.streams[op.idx].design.N
	} else {
		n = w.designs[op.idx].N
	}
	ctx, end := opSpan(ctx, op.kind, n)
	defer end()
	var (
		res leakest.Result
		err error
	)
	if op.kind == "stream" {
		var f *os.File
		if f, err = os.Open(w.streams[op.idx].path); err != nil {
			return nil, err
		}
		w.est.Tiles = 0
		res, err = w.est.EstimateStream(ctx, f, 0.5)
		f.Close()
	} else {
		w.est.Tiles = op.tiles
		res, err = w.est.EstimateContext(ctx, w.designs[op.idx], estMethods[op.kind])
	}
	if err != nil {
		return nil, err
	}
	if op.kind == "linear" {
		telemetry.SpanAttrInt(ctx, "lags", int64(res.GridRows*res.GridCols-1))
	}
	return estOut{op: op, sigma: res.Std, mean: res.Mean}, nil
}

// check compares every op against the monolithic linear estimate of its
// design, computed here after timing: tiled and streamed linear must match
// it to exactTol (DESIGN.md §16 states bitwise identity), the integrals
// must stay within their recorded E7 envelopes, and every mean must equal
// the closed form. Linear ops are checked against the reference and
// against the 2-D integral's envelope.
func (w *estimateWL) check(ctx context.Context, outs []opOut, p perturb) []bool {
	ref, err := leakest.NewEstimator(w.lib, nil)
	if err != nil {
		return make([]bool, len(outs))
	}
	ref.Workers = refProcs
	type refs struct{ lin, integ leakest.Result }
	cache := map[string]refs{}
	refFor := func(key string, d leakest.Design, withIntegral bool) (refs, error) {
		r, ok := cache[key]
		if ok {
			return r, nil
		}
		var err error
		if r.lin, err = ref.EstimateContext(ctx, d, leakest.Linear); err != nil {
			return r, err
		}
		if withIntegral {
			if r.integ, err = ref.EstimateContext(ctx, d, leakest.Integral2D); err != nil {
				return r, err
			}
		}
		cache[key] = r
		return r, nil
	}
	ok := make([]bool, len(outs))
	w.errs = w.errs[:0]
	for k, o := range outs {
		out, good := o.out.(estOut)
		if o.err != nil || !good {
			continue
		}
		sigma := out.sigma * p.scale("sigma")
		var d leakest.Design
		key := fmt.Sprintf("d%d", out.op.idx)
		if out.op.kind == "stream" {
			d, key = w.streams[out.op.idx].design, fmt.Sprintf("s%d", out.op.idx)
		} else {
			d = w.designs[out.op.idx]
		}
		r, err := refFor(key, d, out.op.kind != "stream")
		if err != nil {
			ok[k] = failf(o.i, "reference: %v", err)
			continue
		}
		lin := r.lin.Std
		dev := relDiff(sigma, lin)
		ok[k] = true
		switch out.op.kind {
		case "linear":
			if dev > exactTol {
				ok[k] = failf(o.i, "linear σ %g differs from reference %g", sigma, lin)
			} else if e := envelope("e7.integral_err", d.N); relDiff(r.integ.Std, sigma) > e {
				ok[k] = failf(o.i, "linear σ %g vs integral %g beyond envelope %g", sigma, r.integ.Std, e)
			}
		case "integral", "polar":
			w.errs = append(w.errs, 100*dev)
			if e := envelope("e7."+out.op.kind+"_err", d.N); dev > e {
				ok[k] = failf(o.i, "%s σ %g vs linear %g: %.3g beyond envelope %g", out.op.kind, sigma, lin, dev, e)
			}
		default: // tiled, stream
			if dev > exactTol {
				ok[k] = failf(o.i, "%s σ %g differs from monolithic linear %g", out.op.kind, sigma, lin)
			}
		}
		if relDiff(out.mean, r.lin.Mean) > 1e-9 {
			ok[k] = failf(o.i, "%s mean %g differs from closed form %g", out.op.kind, out.mean, r.lin.Mean)
		}
	}
	return ok
}

func (w *estimateWL) layerExtras([]opOut) map[string]float64 {
	return map[string]float64{"core.sigma_err_pct": mean(w.errs)}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
