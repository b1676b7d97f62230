package chipmc

import (
	"context"
	"math"
	"testing"

	"leakest/internal/lkerr"
	"leakest/internal/netlist"
	"leakest/internal/placement"
	"leakest/internal/spatial"
	"leakest/internal/stats"
	"leakest/internal/telemetry"
)

// TestTiledValidation: tiled sampling composes only with the fft/auto
// samplers (and with the tail stage); bad tile counts are refused.
func TestTiledValidation(t *testing.T) {
	lib, proc, nl, pl := testSetup(t, 64)
	base := Config{Lib: lib, Proc: proc, SignalProb: 0.5, Samples: 16, Seed: 5, Tiles: 2}
	for name, mutate := range map[string]func(*Config){
		"dense":    func(c *Config) { c.Sampler = SamplerDense },
		"qmc":      func(c *Config) { c.Sampler = SamplerQMC },
		"negative": func(c *Config) { c.Tiles = -1 },
	} {
		cfg := base
		mutate(&cfg)
		if _, err := Run(cfg, nl, pl); !lkerr.IsCode(err, lkerr.InvalidInput) {
			t.Errorf("%s: got %v, want InvalidInput", name, err)
		}
	}
	// Tiles = 0 and 1 select the monolithic path and must succeed, and so
	// must a tiled run with the tail stage.
	for _, tiles := range []int{0, 1} {
		cfg := base
		cfg.Tiles = tiles
		if _, err := Run(cfg, nl, pl); err != nil {
			t.Errorf("Tiles=%d: %v", tiles, err)
		}
	}
	cfg := base
	cfg.Tail = &TailConfig{Quantiles: []float64{0.99}}
	if res, err := Run(cfg, nl, pl); err != nil || res.Tail == nil {
		t.Errorf("tail: got %v (tail %v), want a tiled run with tail statistics", err, res.Tail)
	}
}

// TestTiledWorkerInvariance: per-trial and per-(tile, trial) streams make
// the tiled run bitwise reproducible at any worker count.
func TestTiledWorkerInvariance(t *testing.T) {
	lib, proc, nl, pl := testSetup(t, 144)
	cfg := Config{Lib: lib, Proc: proc, SignalProb: 0.5, Samples: 120, Seed: 8,
		Tiles: 3, KeepTrials: true, IncludeVt: true}
	cfg.Workers = 1
	serial, err := Run(cfg, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := Run(cfg, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Mean != par.Mean || serial.Std != par.Std {
		t.Fatalf("worker count changed tiled results: µ %v vs %v, σ %v vs %v",
			serial.Mean, par.Mean, serial.Std, par.Std)
	}
	for i := range serial.Trials {
		if serial.Trials[i] != par.Trials[i] {
			t.Fatalf("trial %d differs across worker counts", i)
		}
	}
}

// TestTiledMatchesMonolithic compares the tiled sampler against the
// monolithic FFT sampler on a design whose correlation range is shorter
// than a tile: there the dropped cross-tile WID correlation is a small
// perturbation and both moments must agree within z·(combined SE) plus a
// border allowance.
func TestTiledMatchesMonolithic(t *testing.T) {
	lib, _, _, _ := testSetup(t, 4)
	// Short-range correlation relative to the 3-tile partition of a 15×15
	// grid (tile side 10 µm, λ = 3 µm hard-capped at 12 µm).
	proc := &spatial.Process{
		LNominal: spatial.Default90nm().LNominal,
		SigmaD2D: spatial.Default90nm().SigmaD2D,
		SigmaWID: spatial.Default90nm().SigmaWID,
		SigmaVt:  spatial.Default90nm().SigmaVt,
		WIDCorr:  spatial.TruncatedExpCorr{Lambda: 3, R: 12},
	}
	hist, _ := stats.NewHistogram(map[string]float64{"INV_X1": 2, "NAND2_X1": 2, "NOR2_X1": 1})
	rng := stats.NewRNG(99, "chipmc-tiled")
	const n = 225
	byName := map[string]int{}
	for _, cc := range lib.Cells {
		byName[cc.Name] = cc.NumInputs
	}
	nl, err := netlist.RandomCircuit(rng, "mc-tiled", n, 8, hist,
		func(typ string) (int, error) { return byName[typ], nil })
	if err != nil {
		t.Fatal(err)
	}
	grid, _ := placement.AutoGrid(n)
	pl, err := placement.Random(rng, grid, n)
	if err != nil {
		t.Fatal(err)
	}
	const samples = 2500
	mono, err := Run(Config{Lib: lib, Proc: proc, SignalProb: 0.5, Samples: samples,
		Seed: 21, Sampler: SamplerFFT}, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	tiled, err := Run(Config{Lib: lib, Proc: proc, SignalProb: 0.5, Samples: samples,
		Seed: 21, Tiles: 3}, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("mono: µ=%.5g σ=%.5g | tiled: µ=%.5g σ=%.5g", mono.Mean, mono.Std, tiled.Mean, tiled.Std)
	const z = 5
	meanTol := z * math.Hypot(mono.MeanSE(), tiled.MeanSE())
	if d := math.Abs(tiled.Mean - mono.Mean); d > meanTol {
		t.Errorf("tiled mean %.6g vs mono %.6g: |Δ| = %.3g > %.3g", tiled.Mean, mono.Mean, d, meanTol)
	}
	// σ carries the border approximation on top of sampling error; allow an
	// extra 3% of σ for the dropped cross-tile WID covariance.
	stdTol := z*math.Hypot(stats.StdSE(mono.Std, mono.Samples), stats.StdSE(tiled.Std, tiled.Samples)) + 0.03*mono.Std
	if d := math.Abs(tiled.Std - mono.Std); d > stdTol {
		t.Errorf("tiled σ %.6g vs mono %.6g: |Δ| = %.3g > %.3g", tiled.Std, mono.Std, d, stdTol)
	}
}

// TestTiledSamplerReuse: interior tiles share their sub-grid geometry, so
// the field must build at most a handful of distinct embeddings, not one
// per tile.
func TestTiledSamplerReuse(t *testing.T) {
	lib, proc, nl, pl := testSetup(t, 225)
	cfg := Config{Lib: lib, Proc: proc, SignalProb: 0.5, Tiles: 3}
	runner, err := newTiledField(context.Background(), cfg, nl.Name, pl, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(runner.slots) != 9 {
		t.Fatalf("got %d tiles, want 9", len(runner.slots))
	}
	if len(runner.samplers) > 4 {
		t.Fatalf("%d distinct samplers for a 3×3 partition, want ≤ 4", len(runner.samplers))
	}
	// Every gate appears in exactly one tile, with a valid local site.
	seen := make([]int, len(nl.Gates))
	for ti, slot := range runner.slots {
		if len(slot.gates) != len(slot.sites) {
			t.Fatalf("tile %d: %d gates but %d sites", ti, len(slot.gates), len(slot.sites))
		}
		if len(slot.gates) > 0 && slot.sampler < 0 {
			t.Fatalf("tile %d has gates but no sampler", ti)
		}
		max := 0
		if slot.sampler >= 0 {
			max = runner.samplers[slot.sampler].Sites()
		}
		for i, g := range slot.gates {
			seen[g]++
			if slot.sites[i] < 0 || slot.sites[i] >= max {
				t.Fatalf("tile %d gate %d: local site %d outside [0,%d)", ti, g, slot.sites[i], max)
			}
		}
	}
	for g, c := range seen {
		if c != 1 {
			t.Fatalf("gate %d assigned to %d tiles", g, c)
		}
	}
}

// TestTiledBudget: the tiled path carries its own default gate budget and
// honors an explicit MaxGates.
func TestTiledBudget(t *testing.T) {
	lib, proc, nl, pl := testSetup(t, 64)
	cfg := Config{Lib: lib, Proc: proc, SignalProb: 0.5, Samples: 16, Seed: 5,
		Tiles: 2, MaxGates: 10}
	if _, err := Run(cfg, nl, pl); !lkerr.IsCode(err, lkerr.BudgetExceeded) {
		t.Fatalf("explicit MaxGates not enforced on the tiled path")
	}
	cfg.MaxGates = 0
	if _, err := Run(cfg, nl, pl); err != nil {
		t.Fatalf("default tiled budget refused 64 gates: %v", err)
	}
}

// TestTiledRouteLabel: a tiled run carries one sampler label — Plan's route
// name — on its duration histogram, its run counter and its span.
func TestTiledRouteLabel(t *testing.T) {
	lib, proc, nl, pl := testSetup(t, 64)
	cfg := Config{Lib: lib, Proc: proc, SignalProb: 0.5, Samples: 16, Seed: 5, Tiles: 2}
	rt, err := Plan(cfg, len(nl.Gates), pl.Grid)
	if err != nil {
		t.Fatal(err)
	}
	const want = "tiled-fft"
	if rt.Name() != want {
		t.Fatalf("route name %q, want %q", rt.Name(), want)
	}
	r := telemetry.Enable()
	dur := r.Histogram(telemetry.Label(telemetry.Label("estimate_duration_seconds",
		"method", "chipmc"), "sampler", want), telemetry.DurationBuckets)
	runs := r.Counter(telemetry.Label("chipmc_sampler_runs_total", "sampler", want))
	d0, r0 := dur.Count(), runs.Value()
	tr := telemetry.NewTrace()
	if _, err := RunContext(telemetry.WithTrace(context.Background(), tr), cfg, nl, pl); err != nil {
		t.Fatal(err)
	}
	if d := dur.Count() - d0; d != 1 {
		t.Errorf("estimate_duration_seconds{sampler=%q} observed %d times, want 1", want, d)
	}
	if d := runs.Value() - r0; d != 1 {
		t.Errorf("chipmc_sampler_runs_total{sampler=%q} += %d, want 1", want, d)
	}
	var got any
	for _, sp := range tr.Snapshot().Spans {
		for _, a := range sp.Attrs {
			if sp.Stage == "chipmc.run" && a.Key == "chipmc.sampler" {
				got = a.Value
			}
		}
	}
	if got != want {
		t.Errorf("chipmc.sampler span attribute %v, want %q", got, want)
	}
}
