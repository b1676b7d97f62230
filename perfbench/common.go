package main

import (
	"context"
	"fmt"
	"math"
	"os"

	"leakest"
	"leakest/internal/cells"
	"leakest/internal/conformance"
	"leakest/internal/telemetry"
)

// cellNames is the ISCAS cell subset every workload draws its designs from.
// Characterizing these eight cells, not the full 62-cell library, keeps a
// setup round short enough to repeat setupRounds times per run.
var cellNames = []string{"INV_X1", "BUF_X1", "NAND2_X1", "NAND3_X1", "NOR2_X1", "AND2_X1", "OR2_X1", "XOR2_X1"}

// charSeed is the characterization seed the leakestd server uses, so the
// benchmark's library is bitwise the server's.
const charSeed = 20070604

// characterize builds the library under the default process on one
// worker.
func characterize(ctx context.Context) (*leakest.Library, error) {
	return leakest.CharacterizeContext(ctx, cells.ISCASSubset(), leakest.CharConfig{
		Process: leakest.DefaultProcess(),
		Seed:    charSeed,
		Workers: 1,
	})
}

// newEstimator returns a single-worker estimator: every timed op runs on
// one goroutine, so its cost does not depend on how busy the machine is.
func newEstimator(lib *leakest.Library) (*leakest.Estimator, error) {
	est, err := leakest.NewEstimator(lib, nil)
	if err != nil {
		return nil, err
	}
	est.Workers = 1
	return est, nil
}

// designHist draws the seed's cell-usage weights over cellNames.
func designHist(seed int64, stream string) (*leakest.Histogram, map[string]float64, error) {
	rng := newRNG(seed, stream)
	w := make(map[string]float64, len(cellNames))
	for _, c := range cellNames {
		w[c] = math.Round(100*(0.5+rng.Float64())) / 100
	}
	h, err := leakest.NewHistogram(w)
	return h, w, err
}

// envelope returns a recorded conformance envelope as a fraction.
func envelope(name string, n int) float64 {
	pct, ok := conformance.RecordedEnvelope(name, n)
	if !ok {
		panic("perfbench: no recorded envelope " + name)
	}
	return pct / 100
}

// exactTol is the relative tolerance of results the program states are
// bitwise identical (tiled and streamed linear vs monolithic linear, the
// served moments vs the library call): a few ulps of slack for summation
// order, far below the 1 % the self-test perturbs by.
const exactTol = 1e-12

// opSpan opens op i's root span, "op.<kind>", with the op's gate count,
// when ctx carries a trace; end closes it.
func opSpan(ctx context.Context, kind string, gates int) (context.Context, func()) {
	ctx, end := telemetry.WithSpan(ctx, "op."+kind)
	telemetry.SpanAttrInt(ctx, "gates", int64(gates))
	return ctx, end
}

// failf logs why an op failed its check and returns false.
func failf(i int, format string, args ...any) bool {
	fmt.Fprintf(os.Stderr, "op %d: %s\n", i, fmt.Sprintf(format, args...))
	return false
}
