package leakest

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"leakest/internal/cells"
	"leakest/internal/charlib"
	"leakest/internal/chipmc"
	"leakest/internal/fault"
)

// workerSweep is the pool-size grid of the determinism suite: the serial
// reference, an even and an odd (non-divisor) count, and whatever this host
// defaults to.
func workerSweep() []int {
	sweep := []int{1, 2, 7}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 2 && g != 7 {
		sweep = append(sweep, g)
	}
	return sweep
}

// TestDeterminismEstimatorsAcrossWorkers locks down the tentpole's hard
// requirement for the two analytic loops: the O(n²) truth and the O(n)
// linear estimator must be bitwise identical at every worker count.
func TestDeterminismEstimatorsAcrossWorkers(t *testing.T) {
	lib, err := charlib.SharedISCAS()
	if err != nil {
		t.Fatal(err)
	}
	nl, pl, err := ISCASCircuit(lib, "c432", 3)
	if err != nil {
		t.Fatal(err)
	}
	design := Design{Hist: coreHist(t), N: 2500, W: 100, H: 100, SignalProb: 0.5}

	var refTruth, refLin Result
	for i, w := range workerSweep() {
		est, err := NewEstimator(lib, nil)
		if err != nil {
			t.Fatal(err)
		}
		est.Workers = w

		truth, err := est.TrueLeakageContext(context.Background(), nl, pl, 0.5)
		if err != nil {
			t.Fatalf("workers=%d: truth: %v", w, err)
		}
		coreEst := coreEstimator(t)
		coreEst.Workers = w
		lin, err := coreEst.EstimateContext(context.Background(), design, Linear)
		if err != nil {
			t.Fatalf("workers=%d: linear: %v", w, err)
		}
		if i == 0 {
			refTruth, refLin = truth, lin
			continue
		}
		if truth.Mean != refTruth.Mean || truth.Std != refTruth.Std {
			t.Errorf("workers=%d: truth (%v, %v) != serial (%v, %v)",
				w, truth.Mean, truth.Std, refTruth.Mean, refTruth.Std)
		}
		if lin.Mean != refLin.Mean || lin.Std != refLin.Std {
			t.Errorf("workers=%d: linear (%v, %v) != serial (%v, %v)",
				w, lin.Mean, lin.Std, refLin.Mean, refLin.Std)
		}
	}
}

// TestDeterminismMonteCarloAcrossWorkers asserts the strongest property of
// the per-trial PRNG streams: not just the summary moments but the entire
// per-trial total sequence is bitwise identical at every worker count.
func TestDeterminismMonteCarloAcrossWorkers(t *testing.T) {
	lib, err := charlib.SharedISCAS()
	if err != nil {
		t.Fatal(err)
	}
	nl, pl, err := ISCASCircuit(lib, "c432", 3)
	if err != nil {
		t.Fatal(err)
	}
	run := func(w int) chipmc.Result {
		res, err := chipmc.RunContext(context.Background(), chipmc.Config{
			Lib: lib, Proc: lib.Process, SignalProb: 0.5,
			Samples: 60, Seed: 11, IncludeVt: true,
			Workers: w, KeepTrials: true,
		}, nl, pl)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(res.Trials) != 60 {
			t.Fatalf("workers=%d: kept %d trials, want 60", w, len(res.Trials))
		}
		return res
	}
	ref := run(1)
	for _, w := range workerSweep()[1:] {
		got := run(w)
		if got.Mean != ref.Mean || got.Std != ref.Std || got.Q05 != ref.Q05 || got.Q95 != ref.Q95 {
			t.Errorf("workers=%d: summary %+v != serial %+v", w, got, ref)
		}
		for i := range ref.Trials {
			if got.Trials[i] != ref.Trials[i] {
				t.Fatalf("workers=%d: trial %d total %v != serial %v — MC streams diverged",
					w, i, got.Trials[i], ref.Trials[i])
			}
		}
	}
}

// TestDeterminismCharacterizationAcrossWorkers deep-compares every
// characterized quantity of every (cell, state) across worker counts.
func TestDeterminismCharacterizationAcrossWorkers(t *testing.T) {
	run := func(w int) *Library {
		lib, err := CharacterizeContext(context.Background(), cells.CoreSubset(), CharConfig{
			Process: DefaultProcess(), MCSamples: 500, Seed: 1, Workers: w,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		return lib
	}
	ref := run(1)
	for _, w := range workerSweep()[1:] {
		got := run(w)
		if len(got.Cells) != len(ref.Cells) {
			t.Fatalf("workers=%d: %d cells != %d", w, len(got.Cells), len(ref.Cells))
		}
		for ci := range ref.Cells {
			rc, gc := &ref.Cells[ci], &got.Cells[ci]
			if gc.Name != rc.Name || len(gc.States) != len(rc.States) {
				t.Fatalf("workers=%d: cell %d is %s/%d states, want %s/%d",
					w, ci, gc.Name, len(gc.States), rc.Name, len(rc.States))
			}
			for si := range rc.States {
				rs, gs := &rc.States[si], &gc.States[si]
				if gs.State != rs.State ||
					gs.MCMean != rs.MCMean || gs.MCStd != rs.MCStd ||
					gs.A != rs.A || gs.B != rs.B || gs.C != rs.C ||
					gs.FitMean != rs.FitMean || gs.FitStd != rs.FitStd {
					t.Errorf("workers=%d: %s state %d differs from serial", w, rc.Name, rs.State)
				}
				for k := range rs.GridLnI {
					if gs.GridLnI[k] != rs.GridLnI[k] || gs.GridL[k] != rs.GridL[k] {
						t.Errorf("workers=%d: %s state %d grid point %d differs",
							w, rc.Name, rs.State, k)
						break
					}
				}
			}
		}
	}
}

// settleGoroutines waits for the goroutine count to drop back to the
// baseline, failing the test if pool workers leak past a fan-out.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines settled at %d, baseline %d — pool workers leaked",
		runtime.NumGoroutine(), baseline)
}

// TestParallelMonteCarloCancellation cancels mid-fan-out at workers > 1 and
// asserts the three pipeline guarantees survive the pool: a prompt typed
// error, no leaked goroutines, and a final progress report for the stage.
func TestParallelMonteCarloCancellation(t *testing.T) {
	defer fault.Reset()
	lib, err := charlib.SharedISCAS()
	if err != nil {
		t.Fatal(err)
	}
	est, err := NewEstimator(lib, nil)
	if err != nil {
		t.Fatal(err)
	}
	est.Workers = 4
	nl, pl, err := ISCASCircuit(lib, "c432", 3)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	fault.Arm(fault.SiteChipMCTrial, fault.Action{Kind: fault.Sleep, Delay: 2 * time.Millisecond})
	var rec progressRecorder
	ctx, cancel := context.WithTimeout(rec.ctx(), 40*time.Millisecond)
	defer cancel()
	_, err = est.MonteCarloContext(ctx, nl, pl, 0.5, 2000, 1)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want typed DeadlineExceeded", err)
	}
	settleGoroutines(t, baseline)
	final := rec.finalFor(t, "chipmc.trials")
	if final.Done >= final.Total {
		t.Errorf("final report %+v claims completion despite the deadline", final)
	}
}

// TestParallelTruthCancellation is the same contract for the O(n²) rows.
func TestParallelTruthCancellation(t *testing.T) {
	defer fault.Reset()
	lib, err := charlib.SharedISCAS()
	if err != nil {
		t.Fatal(err)
	}
	est, err := NewEstimator(lib, nil)
	if err != nil {
		t.Fatal(err)
	}
	est.Workers = 4
	nl, pl, err := ISCASCircuit(lib, "c880", 1)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	fault.Arm(fault.SiteTruthRow, fault.Action{Kind: fault.Sleep, Delay: 2 * time.Millisecond})
	var rec progressRecorder
	ctx, cancel := context.WithTimeout(rec.ctx(), 40*time.Millisecond)
	defer cancel()
	_, err = est.TrueLeakageContext(ctx, nl, pl, 0.5)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want typed DeadlineExceeded", err)
	}
	settleGoroutines(t, baseline)
	final := rec.finalFor(t, "core.truth")
	if final.Done >= final.Total {
		t.Errorf("final report %+v claims completion despite the deadline", final)
	}
}

// TestParallelFaultPanicStaysTyped re-checks the robustness contract inside
// the pool: an injected panic on a worker goroutine must cross back to the
// caller and surface as a typed Numerical error, never crash the process.
func TestParallelFaultPanicStaysTyped(t *testing.T) {
	defer fault.Reset()
	lib, err := charlib.SharedISCAS()
	if err != nil {
		t.Fatal(err)
	}
	est, err := NewEstimator(lib, nil)
	if err != nil {
		t.Fatal(err)
	}
	est.Workers = 4
	nl, pl, err := ISCASCircuit(lib, "c432", 3)
	if err != nil {
		t.Fatal(err)
	}
	fault.Arm(fault.SiteChipMCTrial, fault.Action{Kind: fault.Panic, After: 10})
	_, err = est.MonteCarloContext(context.Background(), nl, pl, 0.5, 200, 1)
	if !errors.Is(err, ErrNumerical) {
		t.Fatalf("err = %v, want typed Numerical from the in-pool panic", err)
	}
}

// TestWorkersFieldIndependence double-checks the plumbing: an absurd worker
// count must change nothing but wall-clock.
func TestWorkersFieldIndependence(t *testing.T) {
	est := coreEstimator(t)
	design := Design{Hist: coreHist(t), N: 1200, W: 80, H: 80, SignalProb: 0.5}
	ref, err := est.EstimateContext(context.Background(), design, Linear)
	if err != nil {
		t.Fatal(err)
	}
	est.Workers = 64
	got, err := est.EstimateContext(context.Background(), design, Linear)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mean != ref.Mean || got.Std != ref.Std {
		t.Errorf("workers=64 result (%v, %v) != default (%v, %v)",
			got.Mean, got.Std, ref.Mean, ref.Std)
	}
	if fmt.Sprintf("%x %x", got.Mean, got.Std) != fmt.Sprintf("%x %x", ref.Mean, ref.Std) {
		t.Errorf("bit patterns differ")
	}
}

// TestDeterminismTailAcrossWorkers extends the MC contract to the tail
// stage: quantiles, the plain exceedance, and the importance-sampled
// accumulation (weights, ESS diagnostics, tilt) must all be bitwise
// identical at every worker count — the IS weight reduction runs serially
// in trial order over owned per-trial slots, exactly like the moments.
func TestDeterminismTailAcrossWorkers(t *testing.T) {
	lib, err := charlib.SharedISCAS()
	if err != nil {
		t.Fatal(err)
	}
	nl, pl, err := ISCASCircuit(lib, "c432", 3)
	if err != nil {
		t.Fatal(err)
	}
	// Spec near the observed P95 so both the plain and the IS estimators
	// see hits at this trial budget.
	probe, err := chipmc.RunContext(context.Background(), chipmc.Config{
		Lib: lib, Proc: lib.Process, SignalProb: 0.5,
		Samples: 200, Seed: 11, KeepTrials: true,
	}, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	run := func(w int) *chipmc.TailStats {
		res, err := chipmc.RunContext(context.Background(), chipmc.Config{
			Lib: lib, Proc: lib.Process, SignalProb: 0.5,
			Samples: 100, Seed: 11, IncludeVt: true, Workers: w,
			Tail: &chipmc.TailConfig{
				Spec:      probe.Q95,
				Quantiles: []float64{0.5, 0.95, 0.99},
				ISTrials:  120,
			},
		}, nl, pl)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if res.Tail == nil {
			t.Fatalf("workers=%d: no tail stats", w)
		}
		return res.Tail
	}
	ref := run(1)
	if ref.ISHits == 0 {
		t.Fatal("tail determinism fixture produced no IS hits; spec placed wrong")
	}
	for _, w := range workerSweep()[1:] {
		got := run(w)
		if got.P != ref.P || got.SE != ref.SE || got.Source != ref.Source {
			t.Errorf("workers=%d: exceedance (%v, %v, %s) != serial (%v, %v, %s)",
				w, got.P, got.SE, got.Source, ref.P, ref.SE, ref.Source)
		}
		if got.MCP != ref.MCP || got.MCHits != ref.MCHits {
			t.Errorf("workers=%d: plain exceedance diverged", w)
		}
		if got.Shift != ref.Shift || got.ESS != ref.ESS || got.HitESS != ref.HitESS || got.ISHits != ref.ISHits {
			t.Errorf("workers=%d: IS diagnostics (θ=%v ESS=%v hitESS=%v hits=%d) != serial (θ=%v ESS=%v hitESS=%v hits=%d)",
				w, got.Shift, got.ESS, got.HitESS, got.ISHits, ref.Shift, ref.ESS, ref.HitESS, ref.ISHits)
		}
		for i := range ref.Quantiles {
			if got.Quantiles[i] != ref.Quantiles[i] {
				t.Fatalf("workers=%d: quantile %d %+v != serial %+v", w, i, got.Quantiles[i], ref.Quantiles[i])
			}
		}
	}
}

// TestTailAccumulatorRaceHammer drives the tail stage with many workers
// over many concurrent runs; under -race this hammers the shared tail
// accumulators (per-trial total and deviate slots, the telemetry counters
// and the ESS gauge) for write races.
func TestTailAccumulatorRaceHammer(t *testing.T) {
	lib, err := charlib.SharedISCAS()
	if err != nil {
		t.Fatal(err)
	}
	nl, pl, err := ISCASCircuit(lib, "c432", 5)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 4
	errs := make(chan error, runs)
	for r := 0; r < runs; r++ {
		go func(seed int64) {
			res, err := chipmc.RunContext(context.Background(), chipmc.Config{
				Lib: lib, Proc: lib.Process, SignalProb: 0.5,
				Samples: 60, Seed: seed, Workers: 7,
				Tail: &chipmc.TailConfig{
					Spec:      1e-6,
					Quantiles: []float64{0.5, 0.99},
					ISTrials:  80,
				},
			}, nl, pl)
			if err == nil && res.Tail == nil {
				err = errors.New("no tail stats")
			}
			errs <- err
		}(int64(r + 1))
	}
	for r := 0; r < runs; r++ {
		if err := <-errs; err != nil {
			t.Errorf("run %d: %v", r, err)
		}
	}
}
