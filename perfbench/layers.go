package main

import (
	"fmt"
	"strings"
)

// Per-layer metrics of the traced run, derived from the spans. Every
// workload reports every one; a layer the workload does not reach reads 0,
// which is how the traced output shows which layers idle.

// layerOf names the layer a span's self time belongs to, given its op's
// kind, or "" for the public API's own glue (estimate, true_leakage,
// core.extract, estimate.stream) and the op roots.
func layerOf(stage, kind string) string {
	switch stage {
	case "charlib.characterize":
		return "charlib.characterize"
	case "core.model":
		return "core.model_build"
	case "estimate.linear":
		return "core.linear"
	case "estimate.integral-2d":
		return "core.integral2d"
	case "estimate.polar-1d":
		return "core.polar"
	case "estimate.linear-tiled":
		return "core.tiled"
	case "core.truth", "truth.class_precompute":
		return "core.truth"
	case "netlist.read_bench", "placement.place":
		return stage
	case "netlist.stream_scan":
		return "netlist.stream"
	case "randvar.grid_embed":
		return "randvar.grid_setup"
	case "chipmc.cholesky":
		return "linalg.cholesky"
	}
	if strings.HasPrefix(stage, "chipmc.") && !isShard(stage) {
		// The mc workload's op kinds are its sampler kinds.
		return "chipmc." + kind
	}
	return ""
}

// layerKind says how a metric is derived.
type layerKind int

const (
	layerMs  layerKind = iota // median over ops of the layer's self time, ms
	layerS                    // the same in s (setup rounds)
	spanMs                    // median duration of the named span, ms
	window                    // work count over the first countWindow ops
	perRound                  // median work count per setup round
	rate                      // total work count / total self time of the layer
	extra                     // measured by the workload (layerExtras)
)

// A counter returns the work a span did in the metric's unit, given its
// op's gate count.
type counter func(s tracedSpan, gates float64) float64

type layerSpec struct {
	name  string
	unit  string
	kind  layerKind
	layer string  // layer or span name
	count counter // window, perRound and rate metrics
}

var (
	countLags = func(s tracedSpan, _ float64) float64 {
		if strings.HasPrefix(s.Stage, "op.") {
			return attrNum(s, "lags")
		}
		return 0
	}
	countPairs = func(s tracedSpan, gates float64) float64 {
		if s.Stage != "core.truth" {
			return 0
		}
		return gates * (gates - 1) / 2
	}
	countStreamGates = func(s tracedSpan, _ float64) float64 {
		if s.Stage == "estimate.stream" {
			return attrNum(s, "gates")
		}
		return 0
	}
	countTrials = func(s tracedSpan, _ float64) float64 {
		return attrNum(s, "chipmc.trials") + attrNum(s, "chipmc.tail_trials")
	}
	countTorusSites = func(s tracedSpan, _ float64) float64 {
		var tm, tn float64
		if v, ok := attr(s, "embed.torus").(string); ok {
			if _, err := fmt.Sscanf(v, "%gx%g", &tm, &tn); err != nil {
				return 0
			}
		}
		return tm * tn
	}
	countCholeskyFlops = func(s tracedSpan, gates float64) float64 {
		if s.Stage == "chipmc.cholesky" {
			return gates * gates * gates / 3
		}
		return 0
	}
	countStates = func(s tracedSpan, _ float64) float64 { return attrNum(s, "charlib.states") }
)

var chipmcKinds = []string{"dense", "fft", "qmc", "tiled", "tail"}

var layerSpecs = []layerSpec{
	{"charlib.characterize_s", "s", layerS, "charlib.characterize", nil},
	{"charlib.states", "count", perRound, "", countStates},
	{"core.model_build_ms", "ms", layerMs, "core.model_build", nil},
	{"core.linear_ms", "ms", layerMs, "core.linear", nil},
	{"core.linear_lags", "count", window, "", countLags},
	{"core.integral2d_ms", "ms", layerMs, "core.integral2d", nil},
	{"core.polar_ms", "ms", layerMs, "core.polar", nil},
	{"core.tiled_ms", "ms", layerMs, "core.tiled", nil},
	{"core.truth_ms", "ms", layerMs, "core.truth", nil},
	{"core.truth_pairs", "count", window, "", countPairs},
	{"core.truth_pairs_per_s", "1/s", rate, "core.truth", countPairs},
	{"core.sigma_err_pct", "%", extra, "", nil},
	{"netlist.read_bench_ms", "ms", layerMs, "netlist.read_bench", nil},
	{"placement.place_ms", "ms", layerMs, "placement.place", nil},
	{"netlist.stream_ms", "ms", layerMs, "netlist.stream", nil},
	{"netlist.stream_gates_per_s", "1/s", rate, "netlist.stream", countStreamGates},
	{"chipmc.dense_ms", "ms", layerMs, "chipmc.dense", nil},
	{"chipmc.fft_ms", "ms", layerMs, "chipmc.fft", nil},
	{"chipmc.qmc_ms", "ms", layerMs, "chipmc.qmc", nil},
	{"chipmc.tiled_ms", "ms", layerMs, "chipmc.tiled", nil},
	{"chipmc.tail_ms", "ms", layerMs, "chipmc.tail", nil},
	{"chipmc.trials", "count", window, "", countTrials},
	{"chipmc.trials_per_s", "1/s", rate, "chipmc.*", countTrials},
	{"randvar.grid_setup_ms", "ms", layerMs, "randvar.grid_setup", nil},
	{"randvar.torus_sites", "count", window, "", countTorusSites},
	{"linalg.cholesky_ms", "ms", layerMs, "linalg.cholesky", nil},
	{"linalg.cholesky_flops", "count", window, "", countCholeskyFlops},
	{"server.request_ms", "ms", spanMs, "server.request", nil},
	{"server.http_overhead_ms", "ms", layerMs, "server.http_overhead", nil},
	{"server.cache_hit_ratio", "ratio", extra, "", nil},
	{"server.queue_depth_max", "count", extra, "", nil},
	{"server.degraded", "count", extra, "", nil},
	{"trace.ops_per_s", "1/s", extra, "", nil},
}

// opLayers returns one op's self time per layer and its gate count: the
// op root's "gates" attribute, else the first span's that has one (a
// response's estimate span). The self time of a service op's root is the
// client latency the server's own request span does not cover.
func opLayers(t tracedOp) (map[string]float64, float64) {
	layers := map[string]float64{}
	gates := 0.0
	served := false
	for _, s := range t.Spans {
		if gates == 0 {
			gates = attrNum(s, "gates")
		}
		served = served || s.Stage == "server.request"
		if l := layerOf(s.Stage, t.Kind); l != "" {
			layers[l] += s.SelfS
		}
	}
	if served {
		for _, s := range t.Spans {
			if s.Parent == 0 && strings.HasPrefix(s.Stage, "op.") {
				layers["server.http_overhead"] += s.SelfS
			}
		}
	}
	return layers, gates
}

// inLayer reports whether layer l is the spec's layer ("chipmc.*" names
// every sampler kind).
func inLayer(spec, l string) bool {
	if spec == "chipmc.*" {
		for _, k := range chipmcKinds {
			if l == "chipmc."+k {
				return true
			}
		}
		return false
	}
	return spec == l
}

// perLayer derives the per-layer metrics from the traced ops (setup rounds
// have Op -1) and the workload's extras.
func perLayer(ops []tracedOp, extras map[string]float64) map[string]metric {
	out := make(map[string]metric, len(layerSpecs))
	for _, ls := range layerSpecs {
		var (
			samples             []float64
			windowSum           float64
			layerTime, countSum float64
			roundCounts         []float64
		)
		for _, t := range ops {
			layers, gates := opLayers(t)
			opCount := 0.0
			for _, s := range t.Spans {
				if ls.kind == spanMs && s.Stage == ls.layer {
					samples = append(samples, s.DurS)
				}
				if ls.count != nil {
					opCount += ls.count(s, gates)
				}
			}
			switch ls.kind {
			case layerMs, layerS:
				if v, ok := layers[ls.layer]; ok && (t.Op >= 0) == (ls.kind == layerMs) {
					samples = append(samples, v)
				}
			case window:
				if t.Op >= 0 && t.Op < countWindow {
					windowSum += opCount
				}
			case perRound:
				if t.Op < 0 {
					roundCounts = append(roundCounts, opCount)
				}
			case rate:
				if t.Op < 0 {
					continue
				}
				for l, v := range layers {
					if inLayer(ls.layer, l) {
						layerTime += v
					}
				}
				countSum += opCount
			}
		}
		v := 0.0
		switch ls.kind {
		case extra:
			v = extras[ls.name]
		case layerMs, spanMs:
			v = median(samples) * 1e3
		case layerS:
			v = median(samples)
		case window:
			v = windowSum
		case perRound:
			v = median(roundCounts)
		case rate:
			if layerTime > 0 {
				v = countSum / layerTime
			}
		}
		out[ls.name] = metric{v, ls.unit}
	}
	return out
}

// attr returns a span attribute's value, or nil.
func attr(s tracedSpan, key string) any {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

// attrNum returns a numeric span attribute (int64 when recorded in this
// process, float64 when decoded from a response), or 0.
func attrNum(s tracedSpan, key string) float64 {
	switch v := attr(s, key).(type) {
	case int64:
		return float64(v)
	case int:
		return float64(v)
	case float64:
		return v
	}
	return 0
}
