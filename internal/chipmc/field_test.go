package chipmc

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"leakest/internal/randvar"
	"leakest/internal/spatial"
	"leakest/internal/stats"
	"leakest/internal/telemetry"
)

// TestTrialBodyAllocs pins the trial loop at zero allocations once a
// worker's buffers are warm, for every field — the primary fields and the
// importance-sampled tail fields alike. Each run is one work item of the
// loop's own block body: one dense trial, one grid pair, or one tiled pair.
func TestTrialBodyAllocs(t *testing.T) {
	lib, proc, nl, pl := testSetup(t, 100)
	cfg := Config{Lib: lib, Proc: proc, SignalProb: 0.5, IncludeVt: true}
	ctx := context.Background()
	gates, err := buildGateStates(cfg, nl)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := randvar.NewGridSampler(proc, pl.Grid)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := cfg
	tcfg.Tiles = 3
	fields := []struct {
		name string
		tilt float64
		make func() (field, error)
	}{
		{"dense", 0, func() (field, error) { return newDenseField(ctx, cfg, false, nl.Name, pl, 1) }},
		{"qmc-dense", 0, func() (field, error) { return newDenseField(ctx, cfg, true, nl.Name, pl, 1) }},
		{"fft", 0, func() (field, error) { return newPairField(cfg, nl.Name, "pair#", gs, pl.Site, 1), nil }},
		{"qmc-grid", 0, func() (field, error) { return newQMCPairField(ctx, cfg, nl.Name, gs, pl.Site, 1) }},
		{"tiled", 0, func() (field, error) { return newTiledField(ctx, tcfg, nl.Name, pl, 1) }},
		{"tail-dense", -3, func() (field, error) {
			f, err := newDenseField(ctx, cfg, false, nl.Name, pl, 1)
			if err != nil {
				return nil, err
			}
			return tailField(cfg, nl.Name, f, 1), nil
		}},
		{"tail-qmc-dense", -3, func() (field, error) {
			f, err := newDenseField(ctx, cfg, true, nl.Name, pl, 1)
			if err != nil {
				return nil, err
			}
			return tailField(cfg, nl.Name, f, 1), nil
		}},
		{"tail-grid", -3, func() (field, error) {
			return tailField(cfg, nl.Name, newPairField(cfg, nl.Name, "pair#", gs, pl.Site, 1), 1), nil
		}},
		{"tail-tiled", -3, func() (field, error) {
			f, err := newTiledField(ctx, tcfg, nl.Name, pl, 1)
			if err != nil {
				return nil, err
			}
			return tailField(tcfg, nl.Name, f, 1), nil
		}},
	}
	const runs = 50
	for _, fc := range fields {
		t.Run(fc.name, func(t *testing.T) {
			f, err := fc.make()
			if err != nil {
				t.Fatal(err)
			}
			e := newEngine(cfg, gates, 1)
			set := &trialSet{f: f, stream: stats.NewStream(1, "chipmc/alloc/trial#"),
				totals: make([]float64, (runs+2)*f.block())}
			if fc.tilt != 0 {
				set.tilt, set.halfT2, set.scale = fc.tilt, 0.5*fc.tilt*fc.tilt, 1
				set.weights = make([]float64, len(set.totals))
			}
			blk := 0
			body := func() {
				if err := e.block("alloc", 0, blk, set); err != nil {
					t.Fatal(err)
				}
				blk++
			}
			body() // warm the buffers
			if allocs := testing.AllocsPerRun(runs, body); allocs != 0 {
				t.Errorf("%s work item allocates %.1f times, want 0", fc.name, allocs)
			}
			for i, v := range set.totals[:blk*f.block()] {
				if !(v > 0) || math.IsInf(v, 0) {
					t.Fatalf("trial %d total %v", i, v)
				}
			}
		})
	}
}

// TestPairFieldsTilt pins the IS contract of the grid pair fields and the
// dense field: on both trials of a pair, fill returns the raw D2D deviate —
// the trial stream's first normal — and a tilt θ moves every gate by
// exactly σ_D2D·θ, leaving the trial's WID field untouched.
func TestPairFieldsTilt(t *testing.T) {
	lib, proc, nl, pl := testSetup(t, 100)
	cfg := Config{Lib: lib, Proc: proc, SignalProb: 0.5, Seed: 4}
	gs, err := randvar.NewGridSampler(proc, pl.Grid)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := cfg
	tcfg.Tiles = 3
	tiled, err := newTiledField(context.Background(), tcfg, nl.Name, pl, 1)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := newDenseField(context.Background(), cfg, false, nl.Name, pl, 1)
	if err != nil {
		t.Fatal(err)
	}
	const theta = -2.5
	stream := stats.NewStream(1, "chipmc/tilt/trial#")
	rng := func(trial int) *rand.Rand { return rand.New(rand.NewSource(stream.SeedFor(trial))) }
	for name, f := range map[string]field{
		"fft":   newPairField(cfg, nl.Name, "pair#", gs, pl.Site, 1),
		"tiled": tiled,
		"dense": dense,
	} {
		t.Run(name, func(t *testing.T) {
			plain := make([]float64, len(nl.Gates))
			tilted := make([]float64, len(nl.Gates))
			const lo = 6
			if err := f.begin(0, lo); err != nil {
				t.Fatal(err)
			}
			for trial := lo; trial < lo+2; trial++ {
				z0, err := f.fill(0, rng(trial), plain, trial, 0)
				if err != nil {
					t.Fatal(err)
				}
				if want := rng(trial).NormFloat64(); z0 != want {
					t.Fatalf("trial %d: fill returned %v, want the trial stream's first normal %v", trial, z0, want)
				}
				z0t, err := f.fill(0, rng(trial), tilted, trial, theta)
				if err != nil {
					t.Fatal(err)
				}
				if z0t != z0 {
					t.Fatalf("trial %d: tilted fill returned %v, want the raw deviate %v", trial, z0t, z0)
				}
				for g := range plain {
					if d := tilted[g] - plain[g] - proc.SigmaD2D*theta; math.Abs(d) > 1e-15 {
						t.Fatalf("trial %d gate %d moved by %v, want σ_D2D·θ = %v", trial, g, tilted[g]-plain[g], proc.SigmaD2D*theta)
					}
				}
			}
		})
	}
}

// TestDenseFieldOneFactor pins that a dense run factorizes one within-die
// covariance however its trials are drawn: a traced run with importance-
// sampled tail trials records exactly one chipmc.cholesky span, because the
// IS trials reuse the primary's factor, and a WID-free process records
// none, because its field is the die-to-die shift alone.
func TestDenseFieldOneFactor(t *testing.T) {
	lib, proc, nl, pl := testSetup(t, 50)
	choleskySpans := func(cfg Config) int {
		t.Helper()
		tr := telemetry.NewTrace()
		if _, err := RunContext(telemetry.WithTrace(context.Background(), tr), cfg, nl, pl); err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, sp := range tr.Snapshot().Spans {
			if sp.Stage == "chipmc.cholesky" {
				n++
			}
		}
		return n
	}
	// Any positive spec runs the IS trials.
	cfg := Config{Lib: lib, Proc: proc, SignalProb: 0.5, Samples: 40, Seed: 2, Sampler: SamplerDense,
		Tail: &TailConfig{Spec: 1e-3, ISTrials: 40}}
	if n := choleskySpans(cfg); n != 1 {
		t.Errorf("dense run with IS trials recorded %d chipmc.cholesky spans, want 1", n)
	}
	cfg = Config{Lib: lib, Proc: allD2DProcess(proc), SignalProb: 0.5, Samples: 40, Seed: 2,
		Sampler: SamplerDense, KeepTrials: true}
	if n := choleskySpans(cfg); n != 0 {
		t.Errorf("WID-free dense run recorded %d chipmc.cholesky spans, want 0", n)
	}
}

// TestDenseFieldD2DOnlyReplay replays a WID-free dense run's trial stream:
// each trial's first normal is its die-to-die deviate z₀, and its total
// must be bitwise the chip total with every gate at L_nom + σ_D2D·z₀.
func TestDenseFieldD2DOnlyReplay(t *testing.T) {
	lib, proc, nl, pl := testSetup(t, 50)
	d2d := allD2DProcess(proc)
	cfg := Config{Lib: lib, Proc: d2d, SignalProb: 0.5, Samples: 40, Seed: 9,
		Sampler: SamplerDense, KeepTrials: true}
	res, err := Run(cfg, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	gates, err := buildGateStates(cfg, nl)
	if err != nil {
		t.Fatal(err)
	}
	stream := stats.NewStream(cfg.Seed, "chipmc/"+nl.Name+"/trial#")
	ls := make([]float64, len(gates))
	for trial, got := range res.Trials {
		rng := rand.New(rand.NewSource(stream.SeedFor(trial)))
		l := d2d.LNominal + d2d.SigmaD2D*rng.NormFloat64()
		for g := range ls {
			ls[g] = l
		}
		if want := chipTotal(gates, rng, ls, 0); got != want {
			t.Fatalf("trial %d total %v, want %v at the uniform length %v", trial, got, want, l)
		}
	}
}

// allD2DProcess puts proc's whole length budget in the die-to-die term, with
// no within-die field, keeping the total sigma a shared characterization
// was made at.
func allD2DProcess(proc *spatial.Process) *spatial.Process {
	return &spatial.Process{LNominal: proc.LNominal, SigmaD2D: proc.TotalSigma(), SigmaVt: proc.SigmaVt}
}
