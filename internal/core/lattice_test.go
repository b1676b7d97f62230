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
// covariances skipped. With perColumn each column sums on its own and the
// columns merge in index order (EstimateLinear); without, one running sum
// covers the lattice (the per-tile sums).
func serialLagRef(m *Model, rows, cols int, dw, dh float64, perColumn bool) float64 {
	off, sum := 0.0, 0.0
	for i := 0; i < cols; i++ {
		if perColumn {
			sum = 0
		}
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
		if perColumn {
			off += sum
		}
	}
	if perColumn {
		return off
	}
	return sum
}

// refVariance is the variance of n gates on a rows×cols array from
// serialLagRef, occupancy-scaled as the estimators scale it.
func refVariance(m *Model, n, rows, cols int, dw, dh float64, perColumn bool) float64 {
	off := serialLagRef(m, rows, cols, dw, dh, perColumn)
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
// (every lag is tail), infinite ranges (no tail), and a pitch that puts
// lags exactly on R. Each keeps the shared library's total sigma.
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
	}
}

// lagFixtureSpecs returns square and rectangular, full and
// occupancy-scaled designs whose dies span a few correlation lengths; for
// "on-R" the pitch is exactly 10 µm, so lags (5,0), (3,4), (4,3) and
// (0,5) lie exactly on R = 50 µm.
func lagFixtureSpecs(t *testing.T, name string) []DesignSpec {
	h := testHist(t)
	if name == "on-R" {
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

// The shared lag kernel must reproduce the per-lag loop bit for bit: the
// monolithic and tiled σ (tiles 1, 2, 3, 7, uneven edges included) and
// every TileStat, in the Analytic and MCSimplified modes, at 1, 3 and 8
// workers.
func TestLagKernelBitwiseMatchesSerialRef(t *testing.T) {
	lib := testLib(t)
	for name, proc := range lagFixtureProcesses() {
		for _, spec := range lagFixtureSpecs(t, name) {
			for _, mode := range []Mode{Analytic, MCSimplified} {
				m, err := NewModel(lib, proc, spec, mode)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s N=%d %gx%g %v", name, spec.N, spec.W, spec.H, mode)
				rows, cols := m.modelGrid()
				dw, dh := spec.W/float64(cols), spec.H/float64(rows)
				wantMean := float64(spec.N) * m.mu
				wantStd := math.Sqrt(refVariance(m, spec.N, rows, cols, dw, dh, true))
				for _, workers := range []int{1, 3, 8} {
					m.Workers = workers
					got, err := m.EstimateLinear()
					if err != nil {
						t.Fatal(err)
					}
					if got.Mean != wantMean || got.Std != wantStd {
						t.Fatalf("%s workers=%d: linear (%x, %x), ref (%x, %x)",
							label, workers, got.Mean, got.Std, wantMean, wantStd)
					}
					for _, tiles := range []int{1, 2, 3, 7} {
						got, err := m.EstimateTiled(tiles, nil)
						if err != nil {
							t.Fatal(err)
						}
						if got.Mean != wantMean || got.Std != wantStd {
							t.Fatalf("%s workers=%d tiles=%d: tiled (%x, %x), ref (%x, %x)",
								label, workers, tiles, got.Mean, got.Std, wantMean, wantStd)
						}
						_, _, parts, counts, err := m.tileGrid(tiles, nil)
						if err != nil {
							t.Fatal(err)
						}
						for idx, ts := range got.TileStats {
							tp, nt := parts[idx], counts[idx]
							std := math.Sqrt(refVariance(m, nt, tp.Rows(), tp.Cols(), dw, dh, false))
							if ts.Std != std || ts.Mean != float64(nt)*m.mu || ts.Gates != nt {
								t.Fatalf("%s workers=%d tiles=%d tile %d: (%d, %x, %x), ref (%d, %x, %x)",
									label, workers, tiles, idx, ts.Gates, ts.Mean, ts.Std, nt, float64(nt)*m.mu, std)
							}
						}
					}
				}
			}
		}
	}
}

// The range tail rests on the computed lag distance never falling as the
// row lag grows within a column. Sweep columns of many pitches and aspect
// ratios, including the exact-on-R pitch.
func TestLagDistanceMonotone(t *testing.T) {
	pitches := [][2]float64{{10, 10}, {1, 1}, {0.3, 7}, {7, 0.3}, {1e-3, 2.5}, {333.3, 0.1}, {2.2, 2.2}}
	for _, p := range pitches {
		dw, dh := p[0], p[1]
		for _, i := range []int{0, 1, 2, 3, 5, 17, 100, 999, 2048} {
			x := float64(i) * dw
			prev := math.Hypot(x, 0)
			for j := 1; j < 4096; j++ {
				d := math.Hypot(x, float64(j)*dh)
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
// (0, 0)).
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
	} {
		m, err := NewModel(lib, procs[tc.proc], tc.spec, Analytic)
		if err != nil {
			t.Fatal(err)
		}
		rows, cols := m.modelGrid()
		dw, dh := tc.spec.W/float64(cols), tc.spec.H/float64(rows)
		r := m.newLagKernel(rows, cols).r
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
