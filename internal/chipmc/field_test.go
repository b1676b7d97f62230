package chipmc

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"leakest/internal/randvar"
	"leakest/internal/stats"
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
		{"tail-dense", -3, func() (field, error) { return newTiltedDenseField(ctx, proc, pl, 1) }},
		{"tail-grid", -3, func() (field, error) {
			return tailField(ctx, cfg, nl.Name, pl, newPairField(cfg, nl.Name, "pair#", gs, pl.Site, 1), 1)
		}},
		{"tail-tiled", -3, func() (field, error) {
			f, err := newTiledField(ctx, tcfg, nl.Name, pl, 1)
			if err != nil {
				return nil, err
			}
			return tailField(ctx, tcfg, nl.Name, pl, f, 1)
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

// TestPairFieldsTilt pins the IS contract of the grid pair fields: on both
// trials of a pair, fill returns the raw D2D deviate — the trial stream's
// first normal — and a tilt θ moves every gate by exactly σ_D2D·θ, leaving
// the pair's WID field untouched.
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
	const theta = -2.5
	stream := stats.NewStream(1, "chipmc/tilt/trial#")
	rng := func(trial int) *rand.Rand { return rand.New(rand.NewSource(stream.SeedFor(trial))) }
	for name, f := range map[string]field{
		"fft":   newPairField(cfg, nl.Name, "pair#", gs, pl.Site, 1),
		"tiled": tiled,
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
