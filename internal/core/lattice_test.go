package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"leakest/internal/spatial"
	"leakest/internal/telemetry"
)

// serialLagRef is the per-lag loop the linear, tiled and per-tile sums ran
// before the shared kernel: every lag (i, j) ≠ (0, 0) of a rows×cols array
// evaluates F(ρ(d)) with multiplicity count·(cols−i)·(rows−j), zero
// covariances skipped. Each column sums on its own and the columns merge
// in index order, the one summation rule of the global and per-tile sums.
func serialLagRef(m *Model, rows, cols int, dw, dh float64) float64 {
	off := 0.0
	for i := 0; i < cols; i++ {
		sum := 0.0
		for j := 0; j < rows; j++ {
			if i == 0 && j == 0 {
				continue
			}
			d := math.Hypot(float64(i)*dw, float64(j)*dh)
			cov := m.CovAtCorr(m.Proc.TotalCorr(d))
			if cov == 0 {
				continue
			}
			mult := float64((cols - i) * (rows - j))
			count := 4.0
			if i == 0 || j == 0 {
				count = 2
			}
			sum += count * mult * cov
		}
		off += sum
	}
	return off
}

// refVariance is the variance of n gates on a rows×cols array from
// serialLagRef, occupancy-scaled as the estimators scale it.
func refVariance(m *Model, n, rows, cols int, dw, dh float64) float64 {
	off := serialLagRef(m, rows, cols, dw, dh)
	if s := rows * cols; s != n {
		occ := 0.0
		if n > 1 && s > 1 {
			occ = float64(n) * float64(n-1) / (float64(s) * float64(s-1))
		}
		off *= occ
	}
	return float64(n)*m.variance + off
}

// lagFixtureProcesses covers finite ranges with a D2D floor (the tail adds
// F(ρ_floor)), a zero floor (the tail is skipped), no WID term at all
// (every lag is tail), infinite ranges (no tail; exp-short's far lags
// underflow exp(−d/λ) to 0), a pitch that puts lags exactly on R, with
// and without a floor (on-R-wid: F(ρ_L = 0) is 0 there, not a
// rounding-level F(0)), and a near-flat truncation (R/λ = 10⁻², so
// ρ_WID = (e − tail)·s with s ≈ 100). Each keeps the shared library's
// total sigma.
func lagFixtureProcesses() map[string]*spatial.Process {
	base := spatial.Default90nm()
	with := func(c spatial.CorrFunc) *spatial.Process {
		p := *base
		p.WIDCorr = c
		return &p
	}
	d2d := *base
	d2d.SigmaD2D, d2d.SigmaWID, d2d.WIDCorr = base.TotalSigma(), 0, nil
	return map[string]*spatial.Process{
		"default90nm": base,
		"wid-only":    base.AllWID(),
		"d2d-only":    &d2d,
		"spherical":   with(spatial.SphericalCorr{R: 2500}),
		"exp":         with(spatial.ExpCorr{Lambda: 800}),
		"gauss":       with(spatial.GaussCorr{Lambda: 1500}),
		"on-R":        with(spatial.TruncatedExpCorr{Lambda: 30, R: 50}),
		"on-R-wid":    with(spatial.TruncatedExpCorr{Lambda: 30, R: 50}).AllWID(),
		"near-flat":   with(spatial.TruncatedExpCorr{Lambda: 1e4, R: 100}),
		"exp-short":   with(spatial.ExpCorr{Lambda: 20}),
	}
}

// lagFixtureSpecs returns square and rectangular, full and
// occupancy-scaled designs whose dies span a few correlation lengths; for
// "on-R", "on-R-wid" and "near-flat" the pitch is exactly 10 µm, so lags
// (5,0), (3,4), (4,3) and (0,5) lie exactly on R = 50 µm and (10,0),
// (6,8), (8,6) and (0,10) on near-flat's R = 100 µm.
func lagFixtureSpecs(t *testing.T, name string) []DesignSpec {
	h := testHist(t)
	if name == "on-R" || name == "on-R-wid" || name == "near-flat" {
		return []DesignSpec{
			{Hist: h, N: 400, W: 200, H: 200, SignalProb: 0.5},
			{Hist: h, N: 600, W: 300, H: 200, SignalProb: 0.5},
		}
	}
	return []DesignSpec{
		{Hist: h, N: 900, W: 9000, H: 9000, SignalProb: 0.5},
		{Hist: h, N: 700, W: 16000, H: 4000, SignalProb: 0.3},
		{Hist: h, N: 1, W: 2, H: 2, SignalProb: 0.5},
		{Hist: h, N: 257, W: 30000, H: 900, SignalProb: 0.5},
	}
}

// ulps is the distance between two finite non-negative floats in units
// in the last place.
func ulps(a, b float64) uint64 {
	x, y := math.Float64bits(a), math.Float64bits(b)
	if x < y {
		x, y = y, x
	}
	return x - y
}

// lagRefULPs bounds how far the lag kernel's σ may lie from serialLagRef's.
// The kernel evaluates F(ρ_L(d)) as widCov's cubic in its feature of
// d = √(x² + y²) instead of F's ρ piece at TotalCorr(Hypot(x, y)), and
// adds the range tail as one product instead of lag by lag; both round
// differently from the reference, never by more than a few ulps of σ over
// lagFixtureProcesses (largest seen: 2 ulps).
const lagRefULPs = 4

// The shared lag kernel must reproduce the per-lag loop to within
// lagRefULPs: the monolithic σ and every TileStat, in all three modes. The
// tiled σ (tiles 1, 2, 3, 7, uneven edges included) must equal the
// linear σ bit for bit, and every result and TileStat must be bitwise the
// same at 1, 3 and 8 workers; one tile's stats are the chip's.
func TestLagKernelMatchesSerialRef(t *testing.T) {
	lib := testLib(t)
	worst := uint64(0)
	for name, proc := range lagFixtureProcesses() {
		for _, spec := range lagFixtureSpecs(t, name) {
			for _, mode := range []Mode{Analytic, MCSimplified, AnalyticSimplified} {
				m, err := NewModel(lib, proc, spec, mode)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s N=%d %gx%g %v", name, spec.N, spec.W, spec.H, mode)
				rows, cols := m.modelGrid()
				dw, dh := spec.W/float64(cols), spec.H/float64(rows)
				m.Workers = 1
				lin, err := m.EstimateLinear()
				if err != nil {
					t.Fatal(err)
				}
				wantMean := float64(spec.N) * m.mu
				wantStd := math.Sqrt(refVariance(m, spec.N, rows, cols, dw, dh))
				u := ulps(lin.Std, wantStd)
				if lin.Mean != wantMean || u > lagRefULPs {
					t.Fatalf("%s: linear (%x, %x), ref (%x, %x): %d ulps", label, lin.Mean, lin.Std, wantMean, wantStd, u)
				}
				worst = max(worst, u)
				tileStats := map[int][]TileStat{} // per tile count, at workers 1
				for _, workers := range []int{1, 3, 8} {
					m.Workers = workers
					got, err := m.EstimateLinear()
					if err != nil {
						t.Fatal(err)
					}
					if got.Mean != lin.Mean || got.Std != lin.Std {
						t.Fatalf("%s workers=%d: linear (%x, %x), workers=1 (%x, %x)",
							label, workers, got.Mean, got.Std, lin.Mean, lin.Std)
					}
					for _, tiles := range []int{1, 2, 3, 7} {
						got, err := m.EstimateTiledCtx(context.Background(), tiles, nil)
						if err != nil {
							t.Fatal(err)
						}
						if got.Mean != lin.Mean || got.Std != lin.Std {
							t.Fatalf("%s workers=%d tiles=%d: tiled (%x, %x), linear (%x, %x)",
								label, workers, tiles, got.Mean, got.Std, lin.Mean, lin.Std)
						}
						if tiles == 1 && (got.TileStats[0].Mean != got.Mean || got.TileStats[0].Std != got.Std) {
							t.Fatalf("%s workers=%d: one tile %+v, chip (%x, %x)", label, workers, got.TileStats[0], got.Mean, got.Std)
						}
						if workers > 1 {
							for idx, ts := range got.TileStats {
								if ts != tileStats[tiles][idx] {
									t.Fatalf("%s workers=%d tiles=%d tile %d: %+v, workers=1 %+v",
										label, workers, tiles, idx, ts, tileStats[tiles][idx])
								}
							}
							continue
						}
						tileStats[tiles] = got.TileStats
						_, _, parts, counts, err := m.tileGrid(tiles, nil)
						if err != nil {
							t.Fatal(err)
						}
						for idx, ts := range got.TileStats {
							tp, nt := parts[idx], counts[idx]
							std := math.Sqrt(refVariance(m, nt, tp.Rows(), tp.Cols(), dw, dh))
							u := ulps(ts.Std, std)
							if u > lagRefULPs || ts.Mean != float64(nt)*m.mu || ts.Gates != nt {
								t.Fatalf("%s tiles=%d tile %d: (%d, %x, %x), ref (%d, %x, %x): %d ulps",
									label, tiles, idx, ts.Gates, ts.Mean, ts.Std, nt, float64(nt)*m.mu, std, u)
							}
							worst = max(worst, u)
						}
					}
				}
			}
		}
	}
	t.Logf("largest distance from serialLagRef: %d ulps", worst)
}

// widCovRelTol bounds widCov's relative distance from CovAtCorr(TotalCorr(d)):
// the composed cubic and F's ρ piece (CovAtCorr) evaluate the same
// polynomial in different bases and variables, and measured at most 4.4e-16 relative over
// every lag of lagFixtureProcesses in all three modes.
const widCovRelTol = 1e-15

// lagDist is the lag kernel's distance of lag (i, j) on a dw×dh pitch.
func lagDist(i, j int, dw, dh float64) float64 {
	x, y := float64(i)*dw, float64(j)*dh
	return math.Sqrt(x*x + y*y)
}

// The composed covariance must match F's cubic spline, the ρ pieces
// CovAtCorr evaluates, at TotalCorr(d) at every lag of the lag fixtures,
// in all three modes; give the correlation floor's covariance bit for bit
// at and past the edge of a finite WID range, where ρ_WID is 0; and pass
// a NaN feature through.
func TestComposedCovMatchesSpline(t *testing.T) {
	lib := testLib(t)
	worst := 0.0
	for name, proc := range lagFixtureProcesses() {
		for _, spec := range lagFixtureSpecs(t, name) {
			for _, mode := range []Mode{Analytic, MCSimplified, AnalyticSimplified} {
				m, err := NewModel(lib, proc, spec, mode)
				if err != nil {
					t.Fatal(err)
				}
				floor := m.CovAtCorr(proc.CorrFloor())
				past := []float64{math.Inf(1)} // past every finite range; e = 0 for an infinite one
				if r := m.cov.r; r < 0 {       // no WID variation
					past = append(past, 0, 1)
				} else if !math.IsInf(r, 1) {
					past = append(past, r, math.Nextafter(r, math.Inf(1)), 2*r)
				}
				for _, d := range past {
					if got := m.covAt(d); math.Float64bits(got) != math.Float64bits(floor) {
						t.Fatalf("%s %v: composed covariance at d = %g (R = %g) is %x, CovAtCorr(floor) %x", name, mode, d, m.cov.r, got, floor)
					}
				}
				if got := m.cov.floor; math.Float64bits(got) != math.Float64bits(floor) {
					t.Fatalf("%s %v: the range tail's covariance is %x, CovAtCorr(floor) %x", name, mode, got, floor)
				}
				if got := m.cov.at(math.NaN()); !math.IsNaN(got) {
					t.Fatalf("%s %v: composed covariance at a NaN feature is %g, want NaN as CovAtCorr gives", name, mode, got)
				}
				rows, cols := m.modelGrid()
				dw, dh := spec.W/float64(cols), spec.H/float64(rows)
				for i := 0; i < cols; i++ {
					for j := 0; j < rows; j++ {
						if i == 0 && j == 0 {
							continue
						}
						d := lagDist(i, j, dw, dh)
						got, want := m.CovAtDist(d), m.CovAtCorr(proc.TotalCorr(d))
						rel := math.Abs(got-want) / want
						if want == 0 {
							rel = math.Abs(got)
						}
						if !(rel <= widCovRelTol) {
							t.Fatalf("%s %v lag (%d, %d), d = %g: composed %x, CovAtCorr %x (rel %.3g)", name, mode, i, j, d, got, want, rel)
						}
						worst = max(worst, rel)
					}
				}
			}
		}
	}
	t.Logf("largest relative distance: %.3g", worst)
}

// The closed-form range tails must equal the explicit sums they replace:
// lagTailCount(dim, end) against Σ_{t≥end} lagCount for every end up to
// dim, which makes the whole population, lagTailCount(dim, 0), dim².
func TestRangeTailCounts(t *testing.T) {
	for dim := 1; dim <= 40; dim++ {
		for end := 0; end <= dim; end++ {
			want := int64(0)
			for u := end; u < dim; u++ {
				want += lagCount(dim, u)
			}
			if got := lagTailCount(dim, end); got != want {
				t.Fatalf("dim %d end %d: lagTailCount %d, Σ lagCount %d", dim, end, got, want)
			}
		}
		if got := lagTailCount(dim, 0); got != int64(dim)*int64(dim) {
			t.Fatalf("dim %d: population %d, want dim²", dim, got)
		}
	}
}

// The range tail rests on the computed lag distance never falling as the
// row lag grows within a column. Sweep columns of many pitches and aspect
// ratios, including the exact-on-R pitch and pitches whose squares
// underflow to 0 or overflow to +Inf.
func TestLagDistanceMonotone(t *testing.T) {
	pitches := [][2]float64{{10, 10}, {1, 1}, {0.3, 7}, {7, 0.3}, {1e-3, 2.5}, {333.3, 0.1}, {2.2, 2.2},
		{1e-170, 1e-170}, {1e155, 1e155}, {1e-170, 1}, {1, 1e155}}
	for _, p := range pitches {
		dw, dh := p[0], p[1]
		for _, i := range []int{0, 1, 2, 3, 5, 17, 100, 999, 2048} {
			prev := lagDist(i, 0, dw, dh)
			for j := 1; j < 4096; j++ {
				d := lagDist(i, j, dw, dh)
				if d < prev {
					t.Fatalf("pitch %v, column %d: d(%d) = %x < d(%d) = %x", p, i, j, d, j-1, prev)
				}
				prev = d
			}
		}
	}
}

// A traced linear or tiled estimate records lags_in_range on its own span:
// exactly the lags within the WID range — all of them without a finite
// range, none without a WID term, and in between the lags with d ≤ R
// (on-R: i² + j² ≤ 25 on a 10 µm pitch, 6+5+5+5+4+1 for i = 0…5 less
// (0, 0)). The count and σ hold at extreme pitches too: at 10⁻¹⁷⁰ µm the
// kernel's x² + y² underflows to 0 and every lag lies within R; at 10¹⁵⁵
// µm it overflows to +Inf and every lag is past a finite R, or evaluated
// at exp(−∞) = 0 under an infinite one.
func TestLagKernelInRangeSpanAttr(t *testing.T) {
	lib := testLib(t)
	procs := lagFixtureProcesses()
	for _, tc := range []struct {
		proc string
		spec DesignSpec
		want int
	}{
		{"exp", DesignSpec{Hist: testHist(t), N: 400, W: 9000, H: 9000, SignalProb: 0.5}, 399},
		{"d2d-only", DesignSpec{Hist: testHist(t), N: 400, W: 9000, H: 9000, SignalProb: 0.5}, 0},
		{"on-R", DesignSpec{Hist: testHist(t), N: 400, W: 200, H: 200, SignalProb: 0.5}, 25},
		{"default90nm", DesignSpec{Hist: testHist(t), N: 700, W: 16000, H: 4000, SignalProb: 0.5}, -1},
		{"on-R", DesignSpec{Hist: testHist(t), N: 400, W: 2e-169, H: 2e-169, SignalProb: 0.5}, 399},
		{"on-R", DesignSpec{Hist: testHist(t), N: 400, W: 2e156, H: 2e156, SignalProb: 0.5}, 0},
		{"exp", DesignSpec{Hist: testHist(t), N: 400, W: 2e156, H: 2e156, SignalProb: 0.5}, 399},
	} {
		m, err := NewModel(lib, procs[tc.proc], tc.spec, Analytic)
		if err != nil {
			t.Fatal(err)
		}
		rows, cols := m.modelGrid()
		dw, dh := tc.spec.W/float64(cols), tc.spec.H/float64(rows)
		lin, err := m.EstimateLinear()
		if err != nil {
			t.Fatal(err)
		}
		if std := math.Sqrt(refVariance(m, tc.spec.N, rows, cols, dw, dh)); ulps(lin.Std, std) > lagRefULPs {
			t.Fatalf("%s %gx%g: linear σ %x, ref %x", tc.proc, tc.spec.W, tc.spec.H, lin.Std, std)
		}
		r := m.cov.r
		want := 0
		for i := 0; i < cols; i++ {
			for j := 0; j < rows; j++ {
				if (i != 0 || j != 0) && math.Hypot(float64(i)*dw, float64(j)*dh) <= r {
					want++
				}
			}
		}
		if tc.want >= 0 && want != tc.want {
			t.Fatalf("%s: %d lags within R, fixture expects %d", tc.proc, want, tc.want)
		}
		for stage, run := range map[string]func(context.Context) error{
			"estimate.linear": func(ctx context.Context) error {
				_, err := m.EstimateLinearCtx(ctx)
				return err
			},
			"estimate.linear-tiled": func(ctx context.Context) error {
				_, err := m.EstimateTiledCtx(ctx, 3, nil)
				return err
			},
		} {
			tr := telemetry.NewTrace()
			if err := run(telemetry.WithTrace(context.Background(), tr)); err != nil {
				t.Fatal(err)
			}
			var got any
			for _, sp := range tr.Snapshot().Spans {
				for _, a := range sp.Attrs {
					if sp.Stage == stage && a.Key == "lags_in_range" {
						got = a.Value
					}
				}
			}
			if got != int64(want) {
				t.Errorf("%s %s: lags_in_range = %v, want %d", tc.proc, stage, got, want)
			}
		}
	}
}

// The lag pass allocates a fixed set of slices per estimate — the column
// slots, the per-worker covariance buffers and, tiled, the box slots and
// tile stats — and nothing per column or lag: the lag populations are
// closed forms. The bounds are the counts measured with a serial pool, so
// no goroutine enters the count.
func TestLagPassAllocs(t *testing.T) {
	m := newTestModel(t, 10000, Analytic)
	m.Workers = 1
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		max  float64
		run  func() error
	}{
		{"EstimateLinearCtx", 6, func() error { _, err := m.EstimateLinearCtx(ctx); return err }},
		{"EstimateTiledCtx", 18, func() error { _, err := m.EstimateTiledCtx(ctx, 4, nil); return err }},
	} {
		var err error
		got := testing.AllocsPerRun(20, func() {
			if e := tc.run(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if got > tc.max {
			t.Errorf("%s: %v allocations per run, want at most %v", tc.name, got, tc.max)
		}
	}
}
