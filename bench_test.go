package leakest

// One benchmark per table and figure of the paper's evaluation (see
// DESIGN.md's experiment index). Each benchmark regenerates the artifact
// through the drivers in internal/experiments at a paper-comparable scale
// and reports the headline error metric; run with -v to see the full
// tables. cmd/paperfigs runs the same drivers at full scale with complete
// textual output.

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"leakest/internal/charlib"
	"leakest/internal/core"
	"leakest/internal/experiments"
	"leakest/internal/netlist"
	"leakest/internal/placement"
	"leakest/internal/stats"
)

// envWorkers reads the LEAKEST_WORKERS override so CI can run the whole
// benchmark suite at a fixed pool size (see the Makefile bench target);
// 0 keeps each benchmark's default.
func envWorkers(b *testing.B) int {
	b.Helper()
	s := os.Getenv("LEAKEST_WORKERS")
	if s == "" {
		return 0
	}
	w, err := strconv.Atoi(s)
	if err != nil || w < 0 {
		b.Fatalf("bad LEAKEST_WORKERS=%q", s)
	}
	return w
}

func benchLib(b *testing.B) *charlib.Library {
	b.Helper()
	lib, err := charlib.SharedISCAS()
	if err != nil {
		b.Fatal(err)
	}
	return lib
}

func benchHist(b *testing.B) *stats.Histogram {
	b.Helper()
	h, err := stats.NewHistogram(map[string]float64{
		"INV_X1": 25, "BUF_X1": 5, "NAND2_X1": 25, "NAND3_X1": 8,
		"NOR2_X1": 15, "AND2_X1": 12, "OR2_X1": 6, "XOR2_X1": 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	return h
}

// lastNotePct extracts the first percentage appearing in a note line.
func lastNotePct(b *testing.B, note string) float64 {
	b.Helper()
	for _, tok := range strings.Fields(note) {
		tok = strings.TrimSuffix(strings.TrimSuffix(tok, ","), "%")
		if v, err := strconv.ParseFloat(tok, 64); err == nil {
			return v
		}
	}
	b.Fatalf("no percentage in note %q", note)
	return 0
}

// BenchmarkCellAccuracy regenerates the §2.1.2 cell-model accuracy check
// (E1): analytical (a,b,c)+MGF moments vs Monte Carlo, all cells and
// states. Paper: mean err avg 0.44 % (max < 2 %), σ err avg 3.1 % (max
// ≈ 10 %).
func BenchmarkCellAccuracy(b *testing.B) {
	lib := benchLib(b)
	for i := 0; i < b.N; i++ {
		t, err := experiments.CellAccuracy(lib)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
			b.ReportMetric(lastNotePct(b, t.Notes[0]), "avg-mean-err-%")
			b.ReportMetric(lastNotePct(b, t.Notes[1]), "avg-std-err-%")
		}
	}
}

// BenchmarkFig2 regenerates Figure 2 (E2): leakage correlation vs
// channel-length correlation, MC vs the analytic f_{m,n} mapping.
func BenchmarkFig2(b *testing.B) {
	lib := benchLib(b)
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig2(experiments.Fig2Config{Lib: lib, MCSamples: 30000, Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
			b.ReportMetric(lastNotePct(b, t.Notes[0]), "max-dev-from-yx")
		}
	}
}

// BenchmarkFig3 regenerates Figure 3 (E3): full-chip mean leakage vs
// signal probability for several cell-usage profiles.
func BenchmarkFig3(b *testing.B) {
	lib := benchLib(b)
	nandHeavy, _ := stats.NewHistogram(map[string]float64{"NAND2_X1": 4, "NAND3_X1": 2, "INV_X1": 2})
	norHeavy, _ := stats.NewHistogram(map[string]float64{"NOR2_X1": 5, "INV_X1": 2, "OR2_X1": 1})
	balanced := benchHist(b)
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig3(experiments.Fig3Config{
			Lib: lib,
			Profiles: map[string]*stats.Histogram{
				"nand-heavy": nandHeavy, "nor-heavy": norHeavy, "balanced": balanced,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

// BenchmarkFig6 regenerates Figure 6 (E4): maximum deviation of random
// circuits' true statistics from the RG estimate, shrinking with size up
// to the paper's 106² = 11 236 gates.
func BenchmarkFig6(b *testing.B) {
	lib := benchLib(b)
	hist := benchHist(b)
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig6(experiments.Fig6Config{
			Lib:   lib,
			Hist:  hist,
			Sides: []int{10, 21, 45, 71, 106},
			Reps:  5,
			Seed:  6,
			Mode:  core.Analytic,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
			b.ReportMetric(lastNotePct(b, t.Notes[0]), "envelope@11236-%")
		}
	}
}

// BenchmarkTable1 regenerates Table 1 (E5): late-mode RG estimation error
// against the O(n²) true leakage on the nine ISCAS85 circuits. Paper:
// 0.23 %–1.38 % σ error.
func BenchmarkTable1(b *testing.B) {
	lib := benchLib(b)
	for i := 0; i < b.N; i++ {
		t, err := experiments.Table1(experiments.Table1Config{Lib: lib, Seed: 1, Mode: core.Analytic})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
			b.ReportMetric(lastNotePct(b, t.Notes[0]), "worst-std-err-%")
		}
	}
}

// BenchmarkSimplifiedCorr regenerates the §3.1.2 check (E6): the error of
// assuming ρ_leak = ρ_L instead of the exact mapping, WID-only and
// WID+D2D. Paper: below 2.8 %.
func BenchmarkSimplifiedCorr(b *testing.B) {
	lib := benchLib(b)
	hist := benchHist(b)
	for i := 0; i < b.N; i++ {
		t, err := experiments.SimplifiedCorr(experiments.SimplifiedCorrConfig{
			Lib: lib, Hist: hist, Sides: []int{32, 71},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
			b.ReportMetric(lastNotePct(b, t.Notes[0]), "worst-err-%")
		}
	}
}

// BenchmarkFig7 regenerates Figure 7 (E7): % error between the
// constant-time integration and the linear-time algorithm across circuit
// sizes. Paper: > 1 % below ~100 gates, < 0.01 % beyond 10⁴.
func BenchmarkFig7(b *testing.B) {
	lib := benchLib(b)
	hist := benchHist(b)
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig7(experiments.Fig7Config{
			Lib:   lib,
			Hist:  hist,
			Sides: []int{5, 8, 16, 32, 71, 106, 178, 316, 562, 1000},
			Mode:  core.Analytic,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

// BenchmarkVtAblation regenerates the §2.1 Vt claim (E9): random Vt
// multiplies the mean but leaves the full-chip spread essentially
// unchanged.
func BenchmarkVtAblation(b *testing.B) {
	lib := benchLib(b)
	hist := benchHist(b)
	for i := 0; i < b.N; i++ {
		t, err := experiments.VtAblation(experiments.VtAblationConfig{
			Lib: lib, Hist: hist, Sides: []int{16, 32}, Samples: 800, Seed: 9,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

// BenchmarkNaiveBaseline regenerates the E10 comparison: the early
// no-correlation estimators underestimate σ by a growing factor.
func BenchmarkNaiveBaseline(b *testing.B) {
	lib := benchLib(b)
	hist := benchHist(b)
	for i := 0; i < b.N; i++ {
		t, err := experiments.NaiveBaseline(experiments.NaiveBaselineConfig{
			Lib: lib, Hist: hist, Sides: []int{10, 32, 100, 316}, Mode: core.Analytic,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

// BenchmarkEstimatorScaling regenerates E11: wall-clock scaling of the
// O(n²), O(n) and O(1) estimators.
func BenchmarkEstimatorScaling(b *testing.B) {
	lib := benchLib(b)
	hist := benchHist(b)
	for i := 0; i < b.N; i++ {
		t, err := experiments.Scaling(experiments.ScalingConfig{
			Lib: lib, Hist: hist,
			TrueSides: []int{16, 32},
			FastSides: []int{32, 100, 316, 1000},
			Seed:      3, Mode: core.Analytic,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

// BenchmarkGateLeakAblation regenerates the EX1 extension: enabling gate
// tunneling raises the mean and dilutes the relative spread.
func BenchmarkGateLeakAblation(b *testing.B) {
	hist := benchHist(b)
	for i := 0; i < b.N; i++ {
		t, err := experiments.GateLeakAblation(experiments.GateLeakConfig{
			Hist: hist, Side: 32, Seed: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

// BenchmarkTemperatureSweep regenerates EX3: full-chip leakage statistics
// across junction temperature, with per-temperature re-characterization.
func BenchmarkTemperatureSweep(b *testing.B) {
	hist := benchHist(b)
	for i := 0; i < b.N; i++ {
		t, err := experiments.TemperatureSweep(experiments.TemperatureConfig{
			Hist: hist, Side: 32, Seed: 5,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

// BenchmarkSignalPropagation regenerates EX4: per-net propagated signal
// probabilities vs the uniform abstraction.
func BenchmarkSignalPropagation(b *testing.B) {
	lib := benchLib(b)
	hist := benchHist(b)
	for i := 0; i < b.N; i++ {
		t, err := experiments.SignalPropagation(experiments.SigPropConfig{
			Lib: lib, Hist: hist, Side: 32, Seed: 6,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

// BenchmarkEstimateLinear measures the raw linear-time estimator on a
// million-gate design (the paper's "order of millions" regime).
func BenchmarkEstimateLinear(b *testing.B) {
	lib := benchLib(b)
	est, err := NewEstimator(lib, experiments.ChipProcess())
	if err != nil {
		b.Fatal(err)
	}
	est.Workers = envWorkers(b)
	design := Design{Hist: benchHist(b), N: 1000000, W: 2000, H: 2000, SignalProb: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.EstimateContext(context.Background(), design, Linear); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateLinearDefault measures the linear-time estimator where
// the per-lag covariance dominates: a million gates on DefaultProcess
// (λ = 1 mm, R = 4 mm) over a 6 mm die, so about a third of the 10⁶ lags
// lie within R and are evaluated one by one, against under 0.3 % on
// BenchmarkEstimateLinear's ChipProcess, where nearly every lag is the
// range tail.
func BenchmarkEstimateLinearDefault(b *testing.B) {
	lib := benchLib(b)
	est, err := NewEstimator(lib, DefaultProcess())
	if err != nil {
		b.Fatal(err)
	}
	est.Workers = envWorkers(b)
	design := Design{Hist: benchHist(b), N: 1000000, W: 6000, H: 6000, SignalProb: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.EstimateContext(context.Background(), design, Linear); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateTiled measures the tiled linear estimator on
// BenchmarkEstimateLinear's million-gate design with 4 tiles per axis: the
// same lag pass as the linear method, which also sums every tile shape's
// lag box, plus the per-tile moments.
func BenchmarkEstimateTiled(b *testing.B) {
	lib := benchLib(b)
	est, err := NewEstimator(lib, experiments.ChipProcess())
	if err != nil {
		b.Fatal(err)
	}
	est.Workers = envWorkers(b)
	est.Tiles = 4
	design := Design{Hist: benchHist(b), N: 1000000, W: 2000, H: 2000, SignalProb: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.EstimateContext(context.Background(), design, Linear); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateConstantTime measures the constant-time integral
// estimator (the polar form of Eq. 20) on the same million-gate design.
func BenchmarkEstimateConstantTime(b *testing.B) {
	lib := benchLib(b)
	est, err := NewEstimator(lib, experiments.ChipProcess())
	if err != nil {
		b.Fatal(err)
	}
	design := Design{Hist: benchHist(b), N: 1000000, W: 2000, H: 2000, SignalProb: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.EstimateContext(context.Background(), design, Polar); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrueLeakage measures the O(n²) baseline at ISCAS scale.
func BenchmarkTrueLeakage(b *testing.B) {
	lib := benchLib(b)
	est, err := NewEstimator(lib, experiments.ChipProcess())
	if err != nil {
		b.Fatal(err)
	}
	est.Workers = envWorkers(b)
	nl, pl, err := ISCASCircuit(lib, "c880", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.TrueLeakageContext(context.Background(), nl, pl, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrueLeakageWorkers sweeps the worker-pool size over the O(n²)
// baseline at c7552 scale (3512 gates, ~6.2M pairs) — the speedup table of
// EXPERIMENTS.md. Results are bitwise identical across the sweep; only
// wall-clock may change (and only on multicore hosts).
func BenchmarkTrueLeakageWorkers(b *testing.B) {
	lib := benchLib(b)
	nl, pl, err := ISCASCircuit(lib, "c7552", 1)
	if err != nil {
		b.Fatal(err)
	}
	sweep := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); g > 4 {
		sweep = append(sweep, g)
	}
	for _, w := range sweep {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			est, err := NewEstimator(lib, experiments.ChipProcess())
			if err != nil {
				b.Fatal(err)
			}
			est.Workers = w
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := est.TrueLeakageContext(context.Background(), nl, pl, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// counterDelta sums the growth of every counter whose full metric name
// starts with base — label variants included — between two registry
// snapshots taken with MetricsSnapshot.
func counterDelta(before, after map[string]any, base string) (float64, string) {
	var total float64
	var topLabel string
	var topDelta float64
	for name, v := range after {
		if name != base && !strings.HasPrefix(name, base+"{") {
			continue
		}
		cur, ok := v.(int64)
		if !ok {
			continue
		}
		prev, _ := before[name].(int64)
		d := float64(cur - prev)
		total += d
		if d > topDelta {
			topDelta = d
			// `base{key="value"}` → value of the first label.
			topLabel = name
			if i := strings.IndexByte(topLabel, '"'); i >= 0 {
				topLabel = topLabel[i+1:]
				if j := strings.IndexByte(topLabel, '"'); j >= 0 {
					topLabel = topLabel[:j]
				}
			}
		}
	}
	return total, topLabel
}

// reportHealthMetrics attaches the run's numerical-health facts to the
// benchmark line (and through cmd/benchjson to BENCH_leakest.json): which
// sampler the MC actually used, how many degradations fired, and how many
// artifact-cache hits were served while the timer ran.
func reportHealthMetrics(b *testing.B, before map[string]any) {
	b.Helper()
	after := MetricsSnapshot()
	if runs, sampler := counterDelta(before, after, "chipmc_sampler_runs_total"); runs > 0 && sampler != "" {
		b.ReportMetric(runs/float64(b.N), "sampler:"+sampler)
	}
	deg, _ := counterDelta(before, after, "degradations_total")
	b.ReportMetric(deg/float64(b.N), "degradations/op")
	hits, _ := counterDelta(before, after, "server_cache_hits_total")
	b.ReportMetric(hits/float64(b.N), "cache-hits/op")
}

// BenchmarkChipMCFFT measures the full-chip Monte Carlo with the
// circulant-embedding FFT sampler on a 10 000-gate placed design — 2.5×
// beyond the dense sampler's gate limit, where the O(S log S) per-trial
// field construction is the only viable path.
func BenchmarkChipMCFFT(b *testing.B) {
	lib := benchLib(b)
	est, err := NewEstimator(lib, experiments.ChipProcess())
	if err != nil {
		b.Fatal(err)
	}
	est.Workers = envWorkers(b)
	est.Sampler = SamplerFFT
	nl, err := RandomCircuit(lib, 1, "mc-fft", 10000, 16, benchHist(b))
	if err != nil {
		b.Fatal(err)
	}
	pl, err := AutoPlace(nl, 1)
	if err != nil {
		b.Fatal(err)
	}
	EnableMetrics()
	before := MetricsSnapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.MonteCarloContext(context.Background(), nl, pl, 0.5, 64, 7); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportHealthMetrics(b, before)
}

// BenchmarkChipMCQMC measures the scrambled-Sobol quasi-Monte-Carlo path
// on the same 10 000-gate placed design as BenchmarkChipMCFFT: each 2-D
// FFT pass yields a Dietrich–Newsam pair of trial fields, as on the fft
// route, while each trial carries the low-discrepancy accuracy the
// conformance suite gates on.
func BenchmarkChipMCQMC(b *testing.B) {
	lib := benchLib(b)
	est, err := NewEstimator(lib, experiments.ChipProcess())
	if err != nil {
		b.Fatal(err)
	}
	est.Workers = envWorkers(b)
	est.Sampler = SamplerQMC
	nl, err := RandomCircuit(lib, 1, "mc-qmc", 10000, 16, benchHist(b))
	if err != nil {
		b.Fatal(err)
	}
	pl, err := AutoPlace(nl, 1)
	if err != nil {
		b.Fatal(err)
	}
	EnableMetrics()
	before := MetricsSnapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.MonteCarloContext(context.Background(), nl, pl, 0.5, 64, 7); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportHealthMetrics(b, before)
}

// BenchmarkChipMCTail compares plain Monte Carlo against the tilted
// importance sampler at the same deep-tail spec (P ≈ 10⁻³, placed by the
// analytic truth's lognormal fit so both arms measure the same quantity).
// The "is" arm spends 1/20 of the plain arm's trials; each arm reports
// plain-eq-trials — the plain-MC trial count that would match its achieved
// standard error, p(1−p)/SE² — so BENCH_leakest.json records the
// trials-to-target-SE savings directly (is/plain-eq-trials divided by its
// actual total is the variance-reduction factor).
func BenchmarkChipMCTail(b *testing.B) {
	lib := benchLib(b)
	est, err := NewEstimator(lib, experiments.ChipProcess())
	if err != nil {
		b.Fatal(err)
	}
	est.Workers = envWorkers(b)
	nl, err := RandomCircuit(lib, 3, "mc-tail", 400, 16, benchHist(b))
	if err != nil {
		b.Fatal(err)
	}
	pl, err := AutoPlace(nl, 3)
	if err != nil {
		b.Fatal(err)
	}
	truth, err := est.TrueLeakageContext(context.Background(), nl, pl, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	dist, err := DistributionOf(truth)
	if err != nil {
		b.Fatal(err)
	}
	const pStar = 1e-3
	spec := dist.Quantile(1 - pStar)
	const plainTrials = 40000
	const isPrimary, isTrials = 500, 1500 // 1/20 of the plain arm

	run := func(b *testing.B, samples, tailTrials int) {
		e := *est
		e.Spec = spec
		e.TailTrials = tailTrials
		var tail *TailStats
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mc, err := e.MonteCarloContext(context.Background(), nl, pl, 0.5, samples, 13)
			if err != nil {
				b.Fatal(err)
			}
			tail = mc.Tail
		}
		b.StopTimer()
		if tail == nil || tail.SE <= 0 {
			b.Fatalf("tail arm returned no usable estimate: %+v", tail)
		}
		b.ReportMetric(tail.P, "p-exceed")
		b.ReportMetric(float64(samples+tailTrials), "trials")
		b.ReportMetric(tail.P*(1-tail.P)/(tail.SE*tail.SE), "plain-eq-trials")
	}
	b.Run("plain", func(b *testing.B) { run(b, plainTrials, 0) })
	b.Run("is", func(b *testing.B) { run(b, isPrimary, isTrials) })
}

// BenchmarkTruthClassed measures the O(n²) truth with the distance-class
// kernel tables at the paper's largest Fig. 6 size (106² = 11 236 gates,
// ~63M pairs): the per-pair kernel chain collapses to an indexed lookup.
func BenchmarkTruthClassed(b *testing.B) {
	lib := benchLib(b)
	est, err := NewEstimator(lib, experiments.ChipProcess())
	if err != nil {
		b.Fatal(err)
	}
	est.Workers = envWorkers(b)
	nl, err := RandomCircuit(lib, 2, "truth-classed", 11236, 16, benchHist(b))
	if err != nil {
		b.Fatal(err)
	}
	pl, err := AutoPlace(nl, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.TrueLeakageContext(context.Background(), nl, pl, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTruthLarge measures the exact truth pass at 30,000 gates on
// ChipProcess (R = 120 µm at the 2 µm pitch, a 61×61 lag box on a 174×173
// grid), past the size where the O(n²) pair loop took seconds: each gate
// counts only its neighbours within R, and the pairs past R join one
// floor product per type pair.
func BenchmarkTruthLarge(b *testing.B) {
	lib := benchLib(b)
	est, err := NewEstimator(lib, experiments.ChipProcess())
	if err != nil {
		b.Fatal(err)
	}
	est.Workers = envWorkers(b)
	nl, err := RandomCircuit(lib, 2, "truth-large", 30000, 16, benchHist(b))
	if err != nil {
		b.Fatal(err)
	}
	pl, err := AutoPlace(nl, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.TrueLeakageContext(context.Background(), nl, pl, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelBuild measures one Random-Gate model build over the full
// 62-cell library under a uniform histogram (595 (cell, state) variants):
// the moments and the aggregated Mehler vector in O(V·K), F's cubic
// pieces and the lag kernel's composed pieces.
func BenchmarkModelBuild(b *testing.B) {
	lib, err := charlib.SharedFull()
	if err != nil {
		b.Fatal(err)
	}
	w := map[string]float64{}
	for _, c := range lib.Cells {
		w[c.Name] = 1
	}
	h, err := stats.NewHistogram(w)
	if err != nil {
		b.Fatal(err)
	}
	spec := core.DesignSpec{Hist: h, N: 10000, W: 200, H: 200, SignalProb: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewModelCtx(context.Background(), lib, lib.Process, spec, core.Analytic); err != nil {
			b.Fatal(err)
		}
	}
}

// syntheticPlaced builds an n-gate netlist (types round-robin over the
// bench histogram, no wiring — leakage needs only types and sites) with a
// deterministic row-major placement, without going through the random
// circuit generator: at 10⁶ gates the generator's wiring step would
// dominate the benchmark setup.
func syntheticPlaced(b *testing.B, n int) (*Netlist, *Placement) {
	b.Helper()
	types := benchHist(b).Labels()
	gates := make([]netlist.Gate, n)
	for i := range gates {
		gates[i].Type = types[i%len(types)]
	}
	nl := &Netlist{Name: fmt.Sprintf("synthetic-%d", n), NumPI: 1, Gates: gates}
	grid, err := placement.AutoGrid(n)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := placement.RowMajor(grid, n)
	if err != nil {
		b.Fatal(err)
	}
	return nl, pl
}

// BenchmarkChipMCTiled measures the tiled full-chip Monte Carlo at the
// million-gate scale the monolithic FFT sampler refuses: per-tile trial
// fields lift the gate limit to DefaultMaxGatesTiled while the per-worker
// scratch keeps the trial body allocation-free. Reports the tile count
// alongside the usual figures.
func BenchmarkChipMCTiled(b *testing.B) {
	lib := benchLib(b)
	est, err := NewEstimator(lib, experiments.ChipProcess())
	if err != nil {
		b.Fatal(err)
	}
	est.Workers = envWorkers(b)
	est.Tiles = 8
	nl, pl := syntheticPlaced(b, 1000000)
	tiles := len(placement.Partition(pl.Grid, est.Tiles))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.MonteCarloContext(context.Background(), nl, pl, 0.5, 32, 7); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(tiles), "tiles")
}

// BenchmarkEstimateStream measures the one-pass streaming estimator at the
// ten-million-gate scale: a writer goroutine serializes a synthetic
// leakest-stream design through a pipe while the reader folds it into
// per-tile gate counts — peak memory stays O(tile) + O(tiles²), never
// O(gates). Reports the tile count of the pass.
func BenchmarkEstimateStream(b *testing.B) {
	lib := benchLib(b)
	est, err := NewEstimator(lib, experiments.ChipProcess())
	if err != nil {
		b.Fatal(err)
	}
	est.Workers = envWorkers(b)
	const side, tiles, gates = 3200, 16, 10000000
	types := benchHist(b).Labels()
	b.ResetTimer()
	var res Result
	for i := 0; i < b.N; i++ {
		pr, pw := io.Pipe()
		go func() {
			pw.CloseWithError(WriteSyntheticStream(pw, "bench-stream",
				side, side, 1.0, 1.0, tiles, types, gates))
		}()
		res, err = est.EstimateStream(context.Background(), pr, 0.5)
		pr.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(res.TileStats)), "tiles")
}

// BenchmarkGridCompare regenerates EX2: the Random-Gate estimator vs a
// grid-based prior-work spatial model, both against the exact O(n²) σ.
func BenchmarkGridCompare(b *testing.B) {
	lib := benchLib(b)
	hist := benchHist(b)
	for i := 0; i < b.N; i++ {
		t, err := experiments.GridCompare(experiments.GridCompareConfig{
			Lib: lib, Hist: hist, Side: 45, Seed: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

// BenchmarkFloorplan measures the floorplan-level early estimator on a
// three-block heterogeneous chip (logic + SRAM + registers).
func BenchmarkFloorplan(b *testing.B) {
	lib := benchLib(b)
	proc := experiments.ChipProcess()
	est, err := NewEstimator(lib, proc)
	if err != nil {
		b.Fatal(err)
	}
	est.Workers = envWorkers(b)
	logic := benchHist(b)
	sram, _ := stats.NewHistogram(map[string]float64{"INV_X1": 1, "NAND2_X1": 1})
	blocks := []Block{
		{Name: "logic", Spec: Design{Hist: logic, N: 40000, W: 400, H: 200, SignalProb: 0.5}},
		{Name: "array", Spec: Design{Hist: sram, N: 90000, W: 600, H: 300, SignalProb: 0.5}, X: 420},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.EstimateFloorplan(blocks); err != nil {
			b.Fatal(err)
		}
	}
}
