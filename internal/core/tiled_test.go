package core

import (
	"context"
	"math"
	"sync/atomic"
	"testing"

	"leakest/internal/lkerr"
	"leakest/internal/placement"
	"leakest/internal/spatial"
)

// tileLagCounts regroups the ordered site-pair population of one dimension
// by lag, assembling it from a tile decomposition with the given edges:
// for every ordered pair of tile intervals [s₁,e₁)×[s₂,e₂) and every lag
// i, the pairs (c, c+i) with c in the first interval and c+i in the second
// number max(0, min(e₁, e₂−i) − max(s₁, s₂−i)), doubled for i > 0 to cover
// the −i direction.
func tileLagCounts(edges []int, dim int) []int64 {
	t := len(edges) - 1
	lc := make([]int64, dim)
	for a := 0; a < t; a++ {
		for b := 0; b < t; b++ {
			s1, e1 := edges[a], edges[a+1]
			s2, e2 := edges[b], edges[b+1]
			for i := max(0, s2-(e1-1)); i <= min(dim-1, e2-1-s1); i++ {
				ov := min(e1, e2-i) - max(s1, s2-i)
				if ov <= 0 {
					continue
				}
				if i == 0 {
					lc[0] += int64(ov)
				} else {
					lc[i] += 2 * int64(ov)
				}
			}
		}
	}
	return lc
}

// TestTileLagCountsClosedForm checks the decomposition identity the tiled
// linear method rests on: assembling the per-lag ordered-pair population
// from the tile intervals reproduces the closed form lagCount exactly, for
// every tile count and for uneven hand-made edges, so the lag pass can
// weight every lag with lagCount alone. The counts are integers, so the
// decomposition is exact — this is what makes the tiled linear method
// bitwise identical to the monolithic one.
func TestTileLagCountsClosedForm(t *testing.T) {
	for _, dim := range []int{1, 2, 5, 17, 64, 100} {
		edgeSets := [][]int{{0, dim}}
		for _, tiles := range []int{1, 2, 3, 5, 7, 8, 100} {
			edgeSets = append(edgeSets, placement.TileEdges(dim, tiles))
		}
		if dim >= 5 { // uneven: one-site, empty and wide tiles
			edgeSets = append(edgeSets, []int{0, 1, 1, 4, dim - 1, dim}, []int{0, dim - 2, dim})
		}
		for _, edges := range edgeSets {
			lc := tileLagCounts(edges, dim)
			for i := range dim {
				if lc[i] != lagCount(dim, i) {
					t.Fatalf("dim=%d edges=%v: lc[%d] = %d, lagCount %d", dim, edges, i, lc[i], lagCount(dim, i))
				}
			}
		}
	}
}

// TestTiledLinearBitwiseEqualsMonolithic is the §16 exactness contract: the
// tiled linear estimator must reproduce the monolithic result bit for bit
// at every tile count and worker count, on square, occupancy-scaled, and
// degenerate specs.
func TestTiledLinearBitwiseEqualsMonolithic(t *testing.T) {
	lib := testLib(t)
	proc := testProcess()
	specs := []DesignSpec{
		squareSpec(t, 576),
		{Hist: testHist(t), N: 100, W: 40, H: 12, SignalProb: 0.5}, // occupancy-scaled
		{Hist: testHist(t), N: 1, W: 2, H: 2, SignalProb: 0.5},     // one gate
		{Hist: testHist(t), N: 257, W: 300, H: 9, SignalProb: 0.3}, // skinny, prime N
	}
	for _, spec := range specs {
		mono, err := NewModel(lib, proc, spec, Analytic)
		if err != nil {
			t.Fatal(err)
		}
		want, err := mono.EstimateLinear()
		if err != nil {
			t.Fatal(err)
		}
		for _, tiles := range []int{1, 2, 3, 5} {
			for _, workers := range []int{1, 4} {
				m, err := NewModel(lib, proc, spec, Analytic)
				if err != nil {
					t.Fatal(err)
				}
				m.Workers = workers
				got, err := m.EstimateTiledCtx(context.Background(), tiles, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got.Mean != want.Mean || got.Std != want.Std {
					t.Fatalf("spec N=%d tiles=%d workers=%d: tiled (%.17g, %.17g) != monolithic (%.17g, %.17g)",
						spec.N, tiles, workers, got.Mean, got.Std, want.Mean, want.Std)
				}
				if got.Method != "linear-tiled" {
					t.Fatalf("method = %q", got.Method)
				}
				if got.GridRows != want.GridRows || got.GridCols != want.GridCols {
					t.Fatalf("grid mismatch: %dx%d vs %dx%d", got.GridRows, got.GridCols, want.GridRows, want.GridCols)
				}
				if got.Note != want.Note {
					t.Fatalf("note mismatch: %q vs %q", got.Note, want.Note)
				}
			}
		}
	}
}

// TestTiledTileStats checks the per-tile records: gate counts sum to N,
// tiles appear in row-major order with consistent coordinates, per-tile
// means are n_t·µ, and per-tile stds are positive and bounded by the
// perfectly-correlated limit.
func TestTiledTileStats(t *testing.T) {
	m := newTestModel(t, 576, Analytic)
	res, err := m.EstimateTiledCtx(context.Background(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TileStats) != 9 {
		t.Fatalf("got %d tiles, want 9", len(res.TileStats))
	}
	mu := m.MeanPerGate()
	totalGates := 0
	var sumMean float64
	for i, ts := range res.TileStats {
		if ts.Index != i {
			t.Fatalf("tile %d has Index %d", i, ts.Index)
		}
		if ts.Row != i/3 || ts.Col != i%3 {
			t.Fatalf("tile %d at (%d,%d), want (%d,%d)", i, ts.Row, ts.Col, i/3, i%3)
		}
		if ts.Gates <= 0 {
			t.Fatalf("tile %d has %d gates", i, ts.Gates)
		}
		totalGates += ts.Gates
		if want := float64(ts.Gates) * mu; math.Abs(ts.Mean-want) > 1e-12*want {
			t.Fatalf("tile %d mean %g, want %g", i, ts.Mean, want)
		}
		sumMean += ts.Mean
		if ts.Std <= 0 {
			t.Fatalf("tile %d std %g", i, ts.Std)
		}
	}
	if totalGates != 576 {
		t.Fatalf("tile gates sum to %d, want 576", totalGates)
	}
	if math.Abs(sumMean-res.Mean) > 1e-9*res.Mean {
		t.Fatalf("tile means sum to %g, chip mean %g", sumMean, res.Mean)
	}
	// Per-tile variances cannot exceed the perfectly-correlated bound
	// (n_t·σ_XI)², and their independent sum cannot exceed the chip variance
	// (correlation is non-negative here).
	var indep float64
	for _, ts := range res.TileStats {
		indep += ts.Std * ts.Std
	}
	if indep > res.Std*res.Std*(1+1e-12) {
		t.Fatalf("independent tile sum %g exceeds chip variance %g", indep, res.Std*res.Std)
	}
}

// TestTiledExplicitGateCounts drives the per-tile allocation externally
// (the streaming path does this) and checks validation of bad slices.
func TestTiledExplicitGateCounts(t *testing.T) {
	m := newTestModel(t, 576, Analytic)
	mono, err := m.EstimateLinear()
	if err != nil {
		t.Fatal(err)
	}
	// A skewed but valid allocation: global moments must be unchanged
	// (they depend only on N), tile stats must reflect the counts.
	counts := make([]int, 4)
	counts[0] = 500
	counts[1] = 50
	counts[2] = 25
	counts[3] = 1
	res, err := m.EstimateTiledCtx(context.Background(), 2, counts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean != mono.Mean || res.Std != mono.Std {
		t.Fatalf("explicit counts changed global moments")
	}
	for i, ts := range res.TileStats {
		if ts.Gates != counts[i] {
			t.Fatalf("tile %d gates %d, want %d", i, ts.Gates, counts[i])
		}
	}
	// Wrong length, negative entries, and wrong sum must be refused.
	for _, bad := range [][]int{
		{576},
		{576, 0, 0},
		{-1, 577, 0, 0},
		{100, 100, 100, 100},
	} {
		if _, err := m.EstimateTiledCtx(context.Background(), 2, bad); !lkerr.IsCode(err, lkerr.InvalidInput) {
			t.Fatalf("counts %v: got %v, want InvalidInput", bad, err)
		}
	}
	if _, err := m.EstimateTiledCtx(context.Background(), 0, nil); !lkerr.IsCode(err, lkerr.InvalidInput) {
		t.Fatalf("tiles=0: want InvalidInput")
	}
}

// TestAllocateTileGates checks the largest-remainder allocation:
// deterministic, sums to n, proportional within one gate.
func TestAllocateTileGates(t *testing.T) {
	grid := placement.Grid{Rows: 24, Cols: 24, SiteW: 2, SiteH: 2}
	parts := placement.Partition(grid, 5)
	for _, n := range []int{0, 1, 576, 577, 123} {
		counts := allocateTileGates(n, parts)
		sum := 0
		for i, c := range counts {
			sum += c
			exact := float64(n) * float64(parts[i].Sites()) / float64(grid.Sites())
			if math.Abs(float64(c)-exact) >= 1 {
				t.Fatalf("n=%d tile %d: count %d, exact share %g", n, i, c, exact)
			}
		}
		if sum != n {
			t.Fatalf("n=%d: counts sum to %d", n, sum)
		}
	}
}

// TestTiledCancellation checks the lag loop honors context cancellation.
func TestTiledCancellation(t *testing.T) {
	m := newTestModel(t, 576, Analytic)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.EstimateTiledCtx(ctx, 2, nil); !lkerr.IsCode(err, lkerr.Canceled) {
		t.Fatalf("got %v, want Canceled", err)
	}
}

// countingCorr counts the Rho calls of the correlation it wraps; the lag
// pass's workers call it concurrently.
type countingCorr struct {
	spatial.CorrFunc
	calls *atomic.Int64
}

func (c countingCorr) Rho(d float64) float64 {
	c.calls.Add(1)
	return c.CorrFunc.Rho(d)
}

// The tiled linear method evaluates each lag's correlation once: its tile
// stats come from the same lag pass as the global sum, so it calls Rho
// exactly as often as the linear method on the same model.
func TestTiledEvaluatesEachLagOnce(t *testing.T) {
	var calls atomic.Int64
	proc := testProcess()
	proc.WIDCorr = countingCorr{proc.WIDCorr, &calls}
	for _, spec := range []DesignSpec{
		{Hist: testHist(t), N: 900, W: 400, H: 300, SignalProb: 0.5},
		{Hist: testHist(t), N: 700, W: 500, H: 200, SignalProb: 0.5}, // occupancy-scaled
	} {
		m, err := NewModel(testLib(t), proc, spec, Analytic)
		if err != nil {
			t.Fatal(err)
		}
		m.Workers = 3
		calls.Store(0)
		if _, err := m.EstimateLinearCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		linear := calls.Load()
		if linear == 0 {
			t.Fatalf("N=%d: the linear method never evaluated ρ_WID", spec.N)
		}
		for _, tiles := range []int{2, 3, 5} {
			calls.Store(0)
			if _, err := m.EstimateTiledCtx(context.Background(), tiles, nil); err != nil {
				t.Fatal(err)
			}
			if got := calls.Load(); got != linear {
				t.Errorf("N=%d tiles=%d: %d Rho calls, linear makes %d", spec.N, tiles, got, linear)
			}
		}
	}
}
