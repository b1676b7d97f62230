package core

import (
	"context"
	"math"
	"testing"

	"leakest/internal/netlist"
	"leakest/internal/placement"
	"leakest/internal/spatial"
	"leakest/internal/stats"
	"leakest/internal/telemetry"
)

// truthDesign places an n-gate random circuit of testHist's five types on
// grid (occupancy n/Sites) and builds its model under proc.
func truthDesign(t *testing.T, n int, grid placement.Grid, proc *spatial.Process) (*Model, *netlist.Netlist, *placement.Placement) {
	t.Helper()
	lib := testLib(t)
	byName := map[string]int{}
	for _, cc := range lib.Cells {
		byName[cc.Name] = cc.NumInputs
	}
	hist := testHist(t)
	rng := stats.NewRNG(77, "truth-class")
	nl, err := netlist.RandomCircuit(rng, "tc", n, 16, hist,
		func(typ string) (int, error) { return byName[typ], nil })
	if err != nil {
		t.Fatal(err)
	}
	pl, err := placement.Random(rng, grid, n)
	if err != nil {
		t.Fatal(err)
	}
	spec := DesignSpec{Hist: hist, N: n, W: grid.W(), H: grid.H(), SignalProb: 0.5}
	m, err := NewModel(lib, proc, spec, Analytic)
	if err != nil {
		t.Fatal(err)
	}
	return m, nl, pl
}

// truthRefULPs bounds how far the truth pass's σ may lie from the
// compensated per-pair double loop's (naiveTruthVariance). The pass adds
// count·2·cov once per (type pair, lag) where the loop adds 2·cov pair by
// pair, and off the power-of-two pitch LagDist may differ from the pair
// distance by an ulp. Measured: 0–3 ulps over truthCases (3 on
// odd-pitch) and 0–4 over the sharding test's designs (4 at n = 77);
// against a 200-bit sum of the same pair terms the pass was at most 3 ulps
// off on truthCases, where an uncompensated running sum drifts by up to 21.
const truthRefULPs = 8

// truthCases are the placements the truth pass is held to: square, odd
// and rectangular pitches where the box is the whole grid, a short range
// whose box is smaller than a partly empty 60×60 grid, a spherical range
// and a process without WID variation (an empty box: every pair at the
// floor).
func truthCases(t *testing.T) []struct {
	name string
	n    int
	grid placement.Grid
	proc *spatial.Process
} {
	t.Helper()
	auto, err := placement.AutoGrid(300)
	if err != nil {
		t.Fatal(err)
	}
	odd, err := placement.NewGrid(200, 1.7, 2.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	rect, err := placement.NewGrid(290, 2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	sixty := placement.Grid{Rows: 60, Cols: 60, SiteW: 2, SiteH: 2}
	with := func(c spatial.CorrFunc) *spatial.Process {
		p := *testProcess()
		p.WIDCorr = c
		return &p
	}
	d2d := *testProcess()
	d2d.SigmaD2D, d2d.SigmaWID, d2d.WIDCorr = d2d.TotalSigma(), 0, nil
	return []struct {
		name string
		n    int
		grid placement.Grid
		proc *spatial.Process
	}{
		{"default-pitch", 300, auto, testProcess()},
		{"odd-pitch", 200, odd, testProcess()},
		{"rectangular", 290, rect, testProcess()},
		{"short-range", 2500, sixty, with(spatial.TruncatedExpCorr{Lambda: 6, R: 24})},
		{"spherical", 2500, sixty, with(spatial.SphericalCorr{R: 30})},
		{"d2d-only", 300, auto, &d2d},
	}
}

// truthCaseDesign builds the design of the truthCases entry called name.
func truthCaseDesign(t *testing.T, name string) (*Model, *netlist.Netlist, *placement.Placement) {
	t.Helper()
	for _, tc := range truthCases(t) {
		if tc.name == name {
			return truthDesign(t, tc.n, tc.grid, tc.proc)
		}
	}
	t.Fatalf("no truth case %q", name)
	return nil, nil, nil
}

// checkPairReference holds the truth pass to the per-pair double loop of
// Eq. 15: σ within truthRefULPs, the mean bit for bit (both add the gate
// means in gate order).
func checkPairReference(t *testing.T, name string, m *Model, nl *netlist.Netlist, pl *placement.Placement) {
	t.Helper()
	got, err := TrueStats(m, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	mean, variance := naiveTruthVariance(t, m, nl, pl)
	if d := ulps(got.Std, math.Sqrt(variance)); d > truthRefULPs || got.Mean != mean {
		t.Errorf("%s: (µ, σ) = (%x, %x), pair loop (%x, %x): σ %d ulps apart",
			name, got.Mean, got.Std, mean, math.Sqrt(variance), d)
	}
}

// maxLagDistULPs is the largest gap, in ulps, between a gate pair's
// centre-to-centre distance and the LagDist of its (row, column) lag, at
// which the truth pass evaluates the pair's covariance.
func maxLagDistULPs(pl *placement.Placement) uint64 {
	var worst uint64
	for a := range pl.Site {
		ra, ca := pl.RowCol(a)
		for b := a + 1; b < len(pl.Site); b++ {
			rb, cb := pl.RowCol(b)
			lag := pl.Grid.LagDist(max(ra-rb, rb-ra), max(ca-cb, cb-ca))
			worst = max(worst, ulps(lag, pl.Dist(a, b)))
		}
	}
	return worst
}

// At the default power-of-two pitch every lag distance is bit for bit the
// pair distance, so the truth pass evaluates each pair's covariance at
// exactly the pair loop's argument and differs from it only in summation
// order.
func TestClassTablesBitwiseIdenticalAtDefaultPitch(t *testing.T) {
	m, nl, pl := truthCaseDesign(t, "default-pitch")
	if d := maxLagDistULPs(pl); d != 0 {
		t.Errorf("a lag distance lies %d ulps from its pair distance at the default pitch", d)
	}
	checkPairReference(t, "default-pitch", m, nl, pl)
}

// On a non-power-of-two pitch a lag distance differs from the pair
// distance by the rounding of the site centres (up to 13 ulps here); the
// truth must still match the pair loop.
func TestClassTablesMatchOnOddPitch(t *testing.T) {
	m, nl, pl := truthCaseDesign(t, "odd-pitch")
	if maxLagDistULPs(pl) == 0 {
		t.Errorf("every lag distance equals its pair distance: the case no longer exercises an inexact pitch")
	}
	checkPairReference(t, "odd-pitch", m, nl, pl)
}

// Off the square (Rows ≠ Cols) the pass's dr·cols+dc lag indexing must
// still reproduce the pair loop, with enough gate types that several type
// pairs share each lag.
func TestClassTablesBitwiseIdenticalOnRectangularGrid(t *testing.T) {
	m, nl, pl := truthCaseDesign(t, "rectangular")
	if pl.Grid.Rows == pl.Grid.Cols {
		t.Fatalf("want a rectangular grid, got %d×%d", pl.Grid.Rows, pl.Grid.Cols)
	}
	if k := len(nl.SortedTypes()); k < 5 {
		t.Fatalf("want ≥ 5 gate types, got %d", k)
	}
	if d := maxLagDistULPs(pl); d != 0 {
		t.Errorf("a lag distance lies %d ulps from its pair distance on the %d×%d grid", d, pl.Grid.Rows, pl.Grid.Cols)
	}
	checkPairReference(t, "rectangular", m, nl, pl)
}

// The short-range, spherical and d2d-only cases, whose pitch cases have
// tests of their own above, must match the pair loop too.
func TestTruthMatchesPairReference(t *testing.T) {
	for _, name := range []string{"short-range", "spherical", "d2d-only"} {
		m, nl, pl := truthCaseDesign(t, name)
		checkPairReference(t, name, m, nl, pl)
	}
}

// Integer counts commute, so the truth pass is bitwise identical at 1, 3
// and 8 workers on every case, and its pairs_in_window span attribute is
// the same integer too.
func TestTruthWorkerInvariance(t *testing.T) {
	for _, tc := range truthCases(t) {
		m, nl, pl := truthDesign(t, tc.n, tc.grid, tc.proc)
		var ref Result
		var refWindow any
		for _, w := range []int{1, 3, 8} {
			m.Workers = w
			tr := telemetry.NewTrace()
			got, err := TrueStatsCtx(telemetry.WithTrace(context.Background(), tr), m, nl, pl)
			if err != nil {
				t.Fatal(err)
			}
			var window any
			for _, sp := range tr.Snapshot().Spans {
				for _, a := range sp.Attrs {
					if sp.Stage == "core.truth" && a.Key == "pairs_in_window" {
						window = a.Value
					}
				}
			}
			if w == 1 {
				ref, refWindow = got, window
				if window == nil {
					t.Fatalf("%s: no pairs_in_window on the core.truth span", tc.name)
				}
				continue
			}
			if math.Float64bits(got.Std) != math.Float64bits(ref.Std) || got.Mean != ref.Mean || window != refWindow {
				t.Errorf("%s workers=%d: (µ, σ, window) = (%x, %x, %v), serial (%x, %x, %v)",
					tc.name, w, got.Mean, got.Std, window, ref.Mean, ref.Std, refWindow)
			}
		}
	}
}

// Every type pair's box counts equal a brute-force count of its gate pairs
// at each box lag, and its pairs outside the box, counted one by one, are
// T_p − Σ box counts with T_p = n_i·n_j (n_i(n_i−1)/2 for i = j): the
// identity the floor term relies on. The short-range and d2d-only cases
// have pairs outside the box; the others have none.
func TestTruthLagCountIdentity(t *testing.T) {
	for _, tc := range truthCases(t) {
		m, nl, pl := truthDesign(t, tc.n, tc.grid, tc.proc)
		types := nl.SortedTypes()
		nt := len(types)
		idx := map[string]int32{}
		for i, typ := range types {
			idx[typ] = int32(i)
		}
		pairOf := make([]int, nt*nt)
		np := 0
		for i := 0; i < nt; i++ {
			for j := i; j < nt; j++ {
				pairOf[i*nt+j], pairOf[j*nt+i] = np, np
				np++
			}
		}
		tg := make([]int32, tc.grid.Sites())
		for s := range tg {
			tg[s] = -1
		}
		perType := make([]int64, nt)
		for g, gate := range nl.Gates {
			tg[pl.Site[g]] = idx[gate.Type]
			perType[idx[gate.Type]]++
		}
		bx := newTruthBox(tc.grid, m.cov.r)
		counts, err := bx.count(context.Background(), "test", 3, tg, nt, pairOf)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int64, len(counts))
		outside := make([]int64, np)
		for a := range nl.Gates {
			ra, ca := pl.RowCol(a)
			for b := a + 1; b < len(nl.Gates); b++ {
				rb, cb := pl.RowCol(b)
				dr, dc := max(ra-rb, rb-ra), max(ca-cb, cb-ca)
				p := pairOf[idx[nl.Gates[a].Type]*int32(nt)+idx[nl.Gates[b].Type]]
				if dr < bx.rows && dc < bx.cols {
					want[p*bx.rows*bx.cols+dr*bx.cols+dc]++
				} else {
					outside[p]++
					if d := tc.grid.LagDist(dr, dc); d <= m.cov.r {
						t.Fatalf("%s: lag (%d, %d) at %g µm ≤ R = %g lies outside the box", tc.name, dr, dc, d, m.cov.r)
					}
				}
			}
		}
		inBox := make([]int64, np)
		for k, c := range counts {
			if int64(c) != want[k] {
				t.Fatalf("%s: count %d at slot %d, brute force %d", tc.name, c, k, want[k])
			}
			inBox[k/(bx.rows*bx.cols)] += int64(c)
		}
		anyOutside := false
		for i := 0; i < nt; i++ {
			for j := i; j < nt; j++ {
				p := pairOf[i*nt+j]
				total := perType[i] * perType[j]
				if i == j {
					total = perType[i] * (perType[i] - 1) / 2
				}
				if inBox[p]+outside[p] != total {
					t.Errorf("%s: pair %s/%s: %d in the box + %d outside ≠ T_p = %d",
						tc.name, types[i], types[j], inBox[p], outside[p], total)
				}
				anyOutside = anyOutside || outside[p] > 0
			}
		}
		short := tc.name == "short-range" || tc.name == "spherical" || tc.name == "d2d-only"
		if anyOutside != short {
			t.Errorf("%s: pairs outside the box = %v, want %v", tc.name, anyOutside, short)
		}
	}
}

// boxReach keeps every lag with k·p ≤ r, including one exactly on r, and
// covers the axis for an infinite or axis-covering range.
func TestBoxReach(t *testing.T) {
	for _, c := range []struct {
		r, p float64
		n    int
		want int
	}{
		{math.Inf(-1), 2, 10, -1},
		{0, 2, 10, 0},
		{24, 2, 60, 12},
		{23.9, 2, 60, 11},
		{0.3, 0.1, 60, 2}, // 3·0.1 rounds above 0.3
		{math.Inf(1), 2, 10, 9},
		{1e300, 2, 10, 9},
		{18, 2, 10, 9},
	} {
		if got := boxReach(c.r, c.p, c.n); got != c.want {
			t.Errorf("boxReach(%g, %g, %d) = %d, want %d", c.r, c.p, c.n, got, c.want)
		}
	}
}
