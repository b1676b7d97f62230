package leakest

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"leakest/internal/charlib"
	"leakest/internal/lkerr"
)

// tiledTestEstimator builds a shared-library estimator and a small placed
// design for the public tiled-surface tests.
func tiledTestEstimator(t *testing.T, n int) (*Estimator, *Netlist, *Placement) {
	t.Helper()
	lib, err := charlib.SharedISCAS()
	if err != nil {
		t.Fatal(err)
	}
	est, err := NewEstimator(lib, nil)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := RandomCircuit(lib, 11, "tiled-public", n, 6, mustHist(t, map[string]float64{
		"INV_X1": 2, "NAND2_X1": 3, "NOR2_X1": 1}))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := AutoPlace(nl, 12)
	if err != nil {
		t.Fatal(err)
	}
	return est, nl, pl
}

func mustHist(t *testing.T, w map[string]float64) *Histogram {
	t.Helper()
	h, err := NewHistogram(w)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestEstimatorTiles: the one tiling policy (CheckTiles). With Tiles = 3,
// linear and auto run the tiled linear method — bitwise the monolithic
// moments plus per-tile statistics — and integral, polar and naive are
// refused with a typed InvalidInput error.
func TestEstimatorTiles(t *testing.T) {
	est, nl, pl := tiledTestEstimator(t, 120)
	design, err := est.ExtractDesign(nl, pl, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	mono, err := est.EstimateContext(context.Background(), design, Linear)
	if err != nil {
		t.Fatal(err)
	}
	est.Tiles = 3
	for _, tc := range []struct {
		method Method
		tiles  bool
	}{{Linear, true}, {Auto, true}, {Integral2D, false}, {Polar, false}, {Naive, false}} {
		tiled, err := est.EstimateContext(context.Background(), design, tc.method)
		if !tc.tiles {
			if !lkerr.IsCode(err, lkerr.InvalidInput) {
				t.Fatalf("%s with Tiles=3: got %v, want InvalidInput", tc.method, err)
			}
			if CheckTiles(tc.method, 3) == nil || CheckTiles(tc.method, 1) != nil {
				t.Fatalf("CheckTiles(%s) disagrees with EstimateContext", tc.method)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if tiled.Mean != mono.Mean || tiled.Std != mono.Std {
			t.Fatalf("%s tiled moments (%v, %v) != monolithic (%v, %v)",
				tc.method, tiled.Mean, tiled.Std, mono.Mean, mono.Std)
		}
		if tiled.Method != "linear-tiled" {
			t.Fatalf("method %q, want linear-tiled", tiled.Method)
		}
		if len(tiled.TileStats) != 9 {
			t.Fatalf("%d tile stats, want 9", len(tiled.TileStats))
		}
	}
	est.Tiles = -3
	if _, err := est.EstimateContext(context.Background(), design, Linear); !lkerr.IsCode(err, lkerr.InvalidInput) {
		t.Fatalf("Tiles=-3: got %v, want InvalidInput", err)
	}
	if _, err := budgeted(est, EstimateBudget{MaxGates: 1}).EstimateContext(context.Background(), design, Auto); !lkerr.IsCode(err, lkerr.InvalidInput) {
		t.Fatalf("budgeted Tiles=-3: got %v, want InvalidInput", err)
	}
}

// TestEstimateStream: the one-pass streaming estimator reproduces the
// in-memory tiled (and hence monolithic linear) result bitwise, because the
// stream header carries the same (histogram, N, W, H) the extractor derives.
func TestEstimateStream(t *testing.T) {
	est, nl, pl := tiledTestEstimator(t, 90)
	const tiles = 3
	var buf bytes.Buffer
	if err := WriteStream(&buf, nl, pl, tiles); err != nil {
		t.Fatal(err)
	}
	streamed, err := est.EstimateStream(context.Background(), bytes.NewReader(buf.Bytes()), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	mono, err := est.EstimateNetlist(nl, pl, 0.5, Linear)
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Mean != mono.Mean || streamed.Std != mono.Std {
		t.Fatalf("streamed (%v, %v) != in-memory linear (%v, %v)",
			streamed.Mean, streamed.Std, mono.Mean, mono.Std)
	}
	if streamed.Method != "linear-tiled" {
		t.Fatalf("method %q", streamed.Method)
	}
	gates := 0
	for _, ts := range streamed.TileStats {
		gates += ts.Gates
	}
	if gates != len(nl.Gates) {
		t.Fatalf("tile stats cover %d gates, want %d", gates, len(nl.Gates))
	}
	// Malformed streams surface as typed InvalidInput.
	if _, err := est.EstimateStream(context.Background(), bytes.NewReader(buf.Bytes()[:buf.Len()/2]), 0.5); !lkerr.IsCode(err, lkerr.InvalidInput) {
		t.Fatalf("truncated stream: got %v, want InvalidInput", err)
	}
}

// TestEstimateStreamBudget: a stream runs the same degradation ladder as
// EstimateContext. Over MaxGates its O(n) rung (the tiled linear method on
// the scanned counts) is skipped for the O(1) floor, and the result equals
// EstimateContext on the scanned design under the same budget bitwise.
func TestEstimateStreamBudget(t *testing.T) {
	est := coreEstimator(t)
	est.Budget = EstimateBudget{MaxGates: streamFreezeGates - 1}
	tr := NewTrace()
	streamed, err := est.EstimateStream(WithTrace(context.Background(), tr), bytes.NewReader(synthStream(t, 2)), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !streamed.Degraded || !strings.Contains(streamed.DegradeReason, "MaxGates") || len(streamed.TileStats) != 0 {
		t.Fatalf("streamed result %q degraded=%v %q with %d tiles, want an O(1) max-gates degradation",
			streamed.Method, streamed.Degraded, streamed.DegradeReason, len(streamed.TileStats))
	}
	kind := ""
	for _, sp := range tr.Snapshot().Spans {
		if sp.Stage == "estimate.stream" {
			for _, a := range sp.Attrs {
				if a.Key == "degraded.o(n)" {
					kind, _ = a.Value.(string)
				}
			}
		}
	}
	if !strings.HasPrefix(kind, "max-gates:") {
		t.Errorf("estimate.stream degraded.o(n) = %q, want a max-gates reason", kind)
	}
	// The synthetic stream assigns its four types round-robin.
	q := float64(streamFreezeGates / 4)
	design := Design{Hist: mustHist(t, map[string]float64{"INV_X1": q, "NAND2_X1": q, "NOR2_X1": q, "XOR2_X1": q}),
		N: streamFreezeGates, W: 60, H: 60, SignalProb: 0.5}
	direct, err := est.EstimateContext(context.Background(), design, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(streamed.Mean) != math.Float64bits(direct.Mean) ||
		math.Float64bits(streamed.Std) != math.Float64bits(direct.Std) ||
		streamed.Method != direct.Method || streamed.DegradeReason != direct.DegradeReason {
		t.Errorf("streamed %+v\nEstimateContext %+v", streamed, direct)
	}
}

// TestMonteCarloTiles: the Tiles knob reaches the Monte-Carlo path and its
// validation (polar-style refusals are chipmc's: dense sampler + tiling).
func TestMonteCarloTiles(t *testing.T) {
	est, nl, pl := tiledTestEstimator(t, 64)
	est.Tiles = 2
	res, err := est.MonteCarloContext(context.Background(), nl, pl, 0.5, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 24 || res.Std <= 0 {
		t.Fatalf("tiled MC result %+v", res)
	}
	est.Sampler = SamplerDense
	if _, err := est.MonteCarloContext(context.Background(), nl, pl, 0.5, 24, 7); !lkerr.IsCode(err, lkerr.InvalidInput) {
		t.Fatalf("tiled+dense: got %v, want InvalidInput", err)
	}
}
