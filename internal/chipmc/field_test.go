package chipmc

import (
	"context"
	"math"
	"testing"

	"leakest/internal/randvar"
	"leakest/internal/stats"
)

// TestTrialBodyAllocs pins the trial loop at zero allocations once a
// worker's buffers are warm, for every field — the primary fields and the
// importance-sampled tail fields alike. Each run is one work item of the
// loop's own block body: one trial, or one batch of qmc pairs.
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
		{"fft", 0, func() (field, error) { return newGridField(gs, pl.Site, 1), nil }},
		{"qmc-grid", 0, func() (field, error) { return newPairField(ctx, cfg, nl.Name, gs, pl.Site, 1) }},
		{"tiled", 0, func() (field, error) { return newTiledField(ctx, tcfg, nl.Name, pl, 1) }},
		{"tail-dense", -3, func() (field, error) { return newTiltedDenseField(ctx, proc, pl, 1) }},
		{"tail-grid", -3, func() (field, error) { return newGridField(gs, pl.Site, 1), nil }},
		{"tail-tiled", -3, func() (field, error) {
			f, err := newTiledField(ctx, tcfg, nl.Name, pl, 1)
			if err != nil {
				return nil, err
			}
			return tailField(ctx, proc, pl, f, 1)
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
