package server

import (
	"net/http"
	"testing"

	"leakest/internal/lkerr"
)

// TestEstimateTiles: a tiles block routes the request through the tiled
// pipeline — the served moments equal the monolithic linear ones bitwise,
// and per_tile returns the tile breakdown.
func TestEstimateTiles(t *testing.T) {
	s := coreServer(t, Config{})
	mono := decodeResp(t, do(t, s, "POST", "/v1/estimate", histRequest(500)))

	body := histRequest(500)
	body["tiles"] = map[string]any{"t": 3, "per_tile": true}
	rec := do(t, s, "POST", "/v1/estimate", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeResp(t, rec)
	r := resp.Result
	if r.Method != "linear-tiled" {
		t.Errorf("method %q, want linear-tiled", r.Method)
	}
	if r.Mean != mono.Result.Mean || r.Std != mono.Result.Std {
		t.Errorf("tiled moments (%v, %v) != monolithic (%v, %v)",
			r.Mean, r.Std, mono.Result.Mean, mono.Result.Std)
	}
	if r.Tiles != 9 || len(r.TileStats) != 9 {
		t.Errorf("tiles=%d, %d tile stats, want 9 each", r.Tiles, len(r.TileStats))
	}
	gates := 0
	for _, ts := range r.TileStats {
		gates += ts.Gates
	}
	if gates != 500 {
		t.Errorf("tile stats cover %d gates, want 500", gates)
	}
	if resp.Conformance == nil || resp.Conformance.Status != "ok" {
		t.Errorf("conformance %+v, want ok (σ check must accept linear-tiled)", resp.Conformance)
	}

	// Without per_tile the breakdown stays off the wire but the count shows.
	body["tiles"] = map[string]any{"t": 3}
	resp = decodeResp(t, do(t, s, "POST", "/v1/estimate", body))
	if resp.Result.Tiles != 9 || resp.Result.TileStats != nil {
		t.Errorf("tiles=%d tile_stats=%v, want 9 and nil", resp.Result.Tiles, resp.Result.TileStats)
	}
}

// TestEstimateTilesMonteCarlo: tiles reach the Monte-Carlo stage.
func TestEstimateTilesMonteCarlo(t *testing.T) {
	s := coreServer(t, Config{})
	rec := do(t, s, "POST", "/v1/estimate", map[string]any{
		"bench": c17, "mc_samples": 50,
		"tiles": map[string]any{"t": 2},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeResp(t, rec)
	if resp.MonteCarlo == nil || resp.MonteCarlo.Samples != 50 || !(resp.MonteCarlo.Mean > 0) {
		t.Fatalf("monte carlo %+v", resp.MonteCarlo)
	}
}

// TestEstimateTilesRejected: the tiles validation refusals that do not
// depend on the method (TestTilesMethodPolicy covers those that do).
func TestEstimateTilesRejected(t *testing.T) {
	s := coreServer(t, Config{})
	cases := []struct {
		name string
		body map[string]any
	}{
		{"negative t", map[string]any{"bench": c17, "tiles": map[string]any{"t": -1}}},
		{"tiles with truth", map[string]any{"bench": c17, "truth": true, "tiles": map[string]any{"t": 2}}},
	}
	for _, tc := range cases {
		rec := do(t, s, "POST", "/v1/estimate", tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, rec.Code, rec.Body.String())
		}
	}
}

// TestTilesMethodPolicy: validate applies leakest.CheckTiles, so a design
// request with tiles.t = 3 is refused before admission for integral, polar
// and naive, and is served by the tiled linear method for linear, auto and
// the default method.
func TestTilesMethodPolicy(t *testing.T) {
	s := coreServer(t, Config{})
	for _, tc := range []struct {
		method string
		tiles  bool
	}{{"", true}, {"auto", true}, {"linear", true}, {"integral", false}, {"polar", false}, {"naive", false}} {
		req := EstimateRequest{Design: &DesignRequest{Hist: testHist(), N: 500, W: 1000, H: 1000},
			Method: tc.method, Tiles: &TilesRequest{T: 3}}
		if err := req.validate(); (err == nil) != tc.tiles || (err != nil && !lkerr.IsCode(err, lkerr.InvalidInput)) {
			t.Errorf("method %q: validate() = %v", tc.method, err)
		}
		body := histRequest(500)
		body["method"] = tc.method
		body["tiles"] = map[string]any{"t": 3}
		rec := do(t, s, "POST", "/v1/estimate", body)
		switch {
		case !tc.tiles && rec.Code != http.StatusBadRequest:
			t.Errorf("method %q: status %d, want 400", tc.method, rec.Code)
		case tc.tiles && rec.Code != http.StatusOK:
			t.Errorf("method %q: status %d: %s", tc.method, rec.Code, rec.Body.String())
		case tc.tiles:
			if got := decodeResp(t, rec).Result.Method; got != "linear-tiled" {
				t.Errorf("method %q: served %q, want linear-tiled", tc.method, got)
			}
		}
	}
}
