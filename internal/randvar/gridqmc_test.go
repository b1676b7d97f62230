package randvar

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"leakest/internal/fft"
	"leakest/internal/linalg"
	"leakest/internal/placement"
	"leakest/internal/spatial"
	"leakest/internal/stats"
)

func qmcTestSampler(t testing.TB, rows, cols int) *GridSampler {
	t.Helper()
	proc := &spatial.Process{
		SigmaWID: 0.004,
		WIDCorr:  spatial.TruncatedExpCorr{Lambda: 3, R: 6},
	}
	grid := placement.Grid{Rows: rows, Cols: cols, SiteW: 2, SiteH: 2}
	s, err := NewGridSampler(proc, grid)
	if err != nil {
		t.Fatalf("NewGridSampler(%dx%d): %v", rows, cols, err)
	}
	return s
}

// TestTopModesOrder pins the deterministic mode ranking the qmc sampler's
// dimension assignment depends on: amplitudes non-increasing, ties broken
// by ascending index, truncation at max, and nil for max ≤ 0.
func TestTopModesOrder(t *testing.T) {
	s := qmcTestSampler(t, 8, 8)
	all := s.TopModes(s.TorusLen())
	if len(all) == 0 {
		t.Fatal("no positive-amplitude modes on a WID sampler")
	}
	for i := 1; i < len(all); i++ {
		ai, aj := s.scale[all[i-1]], s.scale[all[i]]
		if ai < aj || (ai == aj && all[i-1] >= all[i]) {
			t.Fatalf("mode order violated at %d: (%d, %g) before (%d, %g)",
				i, all[i-1], ai, all[i], aj)
		}
	}
	top := s.TopModes(17)
	if len(top) != 17 {
		t.Fatalf("TopModes(17) returned %d modes", len(top))
	}
	for i, k := range top {
		if k != all[i] {
			t.Fatalf("truncated ranking diverges at %d: %d vs %d", i, k, all[i])
		}
	}
	if s.TopModes(0) != nil || s.TopModes(-1) != nil {
		t.Fatal("TopModes(≤0) must be nil")
	}
}

// sampleInto draws one grid field the direct way, an independent reference
// for the pair pipeline: the white-noise spectrum in mode order, one
// inverse transform of the grid corner, and its real part.
func sampleInto(t *testing.T, s *GridSampler, rng *rand.Rand, field []float64) {
	t.Helper()
	torus := make([]complex128, s.tm*s.tn)
	for k, a := range s.scale {
		torus[k] = complex(a*rng.NormFloat64(), a*rng.NormFloat64())
	}
	g := s.grid
	if err := fft.Transform2DInto(torus, s.tm, s.tn, g.Rows, g.Cols, true, make([]complex128, fft.Scratch2DLen(s.tm, s.tn))); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			field[r*g.Cols+c] = real(torus[r*s.tn+c])
		}
	}
}

// TestPairRealChannelMatchesSampleInto is the frozen-law anchor of the
// Dietrich–Newsam pairing: feeding FillPairSpectrum from the same PRNG
// stream the single-field draw uses (the spectrum in mode order), the
// pair's REAL channel — after a full-torus transform —
// must reproduce that field bitwise; the imaginary channel is the extra,
// independent field.
func TestPairRealChannelMatchesSampleInto(t *testing.T) {
	s := qmcTestSampler(t, 6, 10)
	sites := s.Grid().Sites()
	ref := make([]float64, sites)
	fa := make([]float64, sites)
	fb := make([]float64, sites)
	torus := make([]complex128, s.TorusLen())
	tm, tn := s.TorusDims()
	scratch := make([]complex128, fft.Scratch2DLen(tm, tn))
	for seed := int64(1); seed <= 5; seed++ {
		sampleInto(t, s, stats.NewRNG(seed, "pair-ref"), ref)
		s.FillPairSpectrum(stats.NewRNG(seed, "pair-ref"), torus)
		if err := fft.Transform2DInto(torus, tm, tn, tm, tn, true, scratch); err != nil {
			t.Fatal(err)
		}
		s.ExtractPair(torus, 0, fa)
		s.ExtractPair(torus, 1, fb)
		for i := range ref {
			if fa[i] != ref[i] {
				t.Fatalf("seed %d site %d: pair real channel %v != single-field draw %v",
					seed, i, fa[i], ref[i])
			}
			if math.IsNaN(fb[i]) {
				t.Fatalf("seed %d site %d: NaN in imaginary channel", seed, i)
			}
		}
	}
}

// TestPairImagChannelLaw checks the second field statistically: the
// imaginary channel must carry the same marginal variance and lag
// correlation as the real one and be uncorrelated with it (independent
// white-noise channels). 6000 pairs put the 5σ band at ≈9% relative.
func TestPairImagChannelLaw(t *testing.T) {
	s := qmcTestSampler(t, 4, 4)
	const pairs = 6000
	torus := make([]complex128, s.TorusLen())
	tm, tn := s.TorusDims()
	scratch := make([]complex128, fft.Scratch2DLen(tm, tn))
	sites := s.Grid().Sites()
	fa := make([]float64, sites)
	fb := make([]float64, sites)
	rng := stats.NewRNG(7, "pair-law")
	// Track site 0 and its row neighbour (lag = one pitch) on both channels.
	a0 := make([]float64, pairs)
	a1 := make([]float64, pairs)
	b0 := make([]float64, pairs)
	b1 := make([]float64, pairs)
	for p := 0; p < pairs; p++ {
		s.FillPairSpectrum(rng, torus)
		if err := fft.Transform2DInto(torus, tm, tn, tm, tn, true, scratch); err != nil {
			t.Fatal(err)
		}
		s.ExtractPair(torus, 0, fa)
		s.ExtractPair(torus, 1, fb)
		a0[p], a1[p] = fa[0], fa[1]
		b0[p], b1[p] = fb[0], fb[1]
	}
	const vw = 0.004 * 0.004
	z := 5.0 / math.Sqrt(pairs)                    // 5σ band for a correlation estimate
	vtol := 5 * vw * math.Sqrt2 / math.Sqrt(pairs) // 5σ band for a variance
	wantRho := spatial.TruncatedExpCorr{Lambda: 3, R: 6}.Rho(2)
	for name, c := range map[string][]float64{"real": a0, "imag": b0} {
		if v := stats.Variance(c); math.Abs(v-vw) > vtol {
			t.Errorf("%s channel variance %.4g, want %.4g ± %.2g", name, v, vw, vtol)
		}
	}
	if r := correlation(a0, a1); math.Abs(r-wantRho) > z {
		t.Errorf("real channel lag-1 correlation %.4f, want %.4f ± %.4f", r, wantRho, z)
	}
	if r := correlation(b0, b1); math.Abs(r-wantRho) > z {
		t.Errorf("imag channel lag-1 correlation %.4f, want %.4f ± %.4f", r, wantRho, z)
	}
	if r := correlation(a0, b0); math.Abs(r) > z {
		t.Errorf("cross-channel correlation %.4f, want 0 ± %.4f", r, z)
	}
}

// TestSetModeOverride: SetMode must reproduce exactly what FillPairSpectrum
// writes for the same deviates, and changing a mode's deviates changes only
// that entry.
func TestSetModeOverride(t *testing.T) {
	s := qmcTestSampler(t, 4, 4)
	torus := make([]complex128, s.TorusLen())
	rng := stats.NewRNG(3, "setmode")
	s.FillPairSpectrum(rng, torus)
	ref := append([]complex128(nil), torus...)
	top := s.TopModes(4)
	for _, k := range top {
		g1 := real(ref[k]) / s.scale[k]
		g2 := imag(ref[k]) / s.scale[k]
		s.SetMode(torus, k, g1, g2)
		if torus[k] != ref[k] {
			t.Fatalf("SetMode(%d) with identical deviates changed the entry", k)
		}
		s.SetMode(torus, k, g1+1, g2)
		if torus[k] == ref[k] {
			t.Fatalf("SetMode(%d) with different deviates left the entry", k)
		}
		s.SetMode(torus, k, g1, g2)
	}
	for i := range torus {
		if torus[i] != ref[i] {
			t.Fatalf("entry %d changed by SetMode round-trip", i)
		}
	}
}

// TestSamplePartialIntoBlockedBitwise pins the register-blocked L·z to the
// one-row scalar reference bitwise, at sizes covering every residue mod 4
// and with fixed ∈ {0, 1, n}.
func TestSamplePartialIntoBlockedBitwise(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 37, 130} {
		cov := linalg.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				cov.Set(i, j, 1e-4*math.Pow(0.9, math.Abs(float64(i-j))))
			}
		}
		s, err := NewMVNSampler(cov)
		if err != nil {
			t.Fatal(err)
		}
		z := make([]float64, n)
		out := make([]float64, n)
		for _, fixed := range []int{0, 1, n} {
			rng := stats.NewRNG(int64(n), "partial-blocked")
			for j := 0; j < fixed; j++ {
				z[j] = rng.NormFloat64()
			}
			s.SamplePartialInto(rng, z, out, fixed)
			for i := 0; i < n; i++ {
				row := s.l.Row(i)
				want := 0.0
				for j := 0; j <= i; j++ {
					want += row[j] * z[j]
				}
				if out[i] != want {
					t.Fatalf("n=%d fixed=%d: out[%d] = %v, scalar reference %v", n, fixed, i, out[i], want)
				}
			}
		}
	}
}

// TestTopModesMatchesFullSort pins the bounded top-k selection to the prefix
// of a full sort under the same order, on a spectrum with many amplitude
// ties and zero (clamped) modes, for max from 1 up to past the spectrum
// length, where the heap holds every mode.
func TestTopModesMatchesFullSort(t *testing.T) {
	const modes = 4096
	rng := stats.NewRNG(17, "topmodes-ties")
	s := &GridSampler{scale: make([]float64, modes)}
	for k := range s.scale {
		s.scale[k] = float64(rng.Intn(9)) / 8 // 1 in 9 is a zero mode
	}
	var full []int
	for k, a := range s.scale {
		if a > 0 {
			full = append(full, k)
		}
	}
	sort.Slice(full, func(i, j int) bool {
		if ai, aj := s.scale[full[i]], s.scale[full[j]]; ai != aj {
			return ai > aj
		}
		return full[i] < full[j]
	})
	for _, max := range []int{1, 2, 35, 1023, 1024, len(full), modes, modes + 5} {
		got := s.TopModes(max)
		want := full[:min(max, len(full))]
		if len(got) != len(want) {
			t.Fatalf("TopModes(%d) returned %d modes, want %d", max, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("TopModes(%d)[%d] = %d, full-sort prefix has %d", max, i, got[i], want[i])
			}
		}
	}
}

// mvnDraw is the unblocked reference draw of s: n normals from rng in index
// order into z, then out = L·z row by row.
func mvnDraw(s *MVNSampler, rng *rand.Rand, z, out []float64) {
	for i := range z {
		z[i] = rng.NormFloat64()
	}
	for i := range out {
		acc := 0.0
		for j, v := range s.l.Row(i)[:i+1] {
			acc += v * z[j]
		}
		out[i] = acc
	}
}

// TestSamplePartialInto pins the dense-qmc hook: with fixed = 0 it is
// bitwise the reference draw from the same stream; with fixed = n it
// consumes nothing from the PRNG and is a pure deterministic map of the
// supplied deviates.
func TestSamplePartialInto(t *testing.T) {
	const n = 6
	cov := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			cov.Set(i, j, 2*math.Pow(0.5, math.Abs(float64(i-j))))
		}
	}
	s, err := NewMVNSampler(cov)
	if err != nil {
		t.Fatal(err)
	}
	z1 := make([]float64, n)
	z2 := make([]float64, n)
	out1 := make([]float64, n)
	out2 := make([]float64, n)
	rng1 := stats.NewRNG(11, "partial")
	rng2 := stats.NewRNG(11, "partial")
	for i := 0; i < 20; i++ {
		mvnDraw(s, rng1, z1, out1)
		s.SamplePartialInto(rng2, z2, out2, 0)
		for j := range out1 {
			if out1[j] != out2[j] {
				t.Fatalf("draw %d dim %d: fixed=0 %v != reference draw %v", i, j, out2[j], out1[j])
			}
		}
	}
	// fixed = n: the result must be a pure map of the supplied deviates,
	// independent of the PRNG handed in.
	for j := range z1 {
		z1[j] = float64(j) - 2
	}
	copy(z2, z1)
	s.SamplePartialInto(stats.NewRNG(11, "partial-unused"), z1, out1, n)
	s.SamplePartialInto(stats.NewRNG(99, "partial-other"), z2, out2, n)
	for j := range out1 {
		if out1[j] != out2[j] {
			t.Fatalf("fixed=n dim %d depends on the PRNG: %v vs %v", j, out1[j], out2[j])
		}
	}
	for _, bad := range []int{-1, n + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("fixed=%d must panic", bad)
				}
			}()
			s.SamplePartialInto(rng1, z1, out1, bad)
		}()
	}
}

// FuzzBatchedDraw fuzzes the pair-field pipeline's pruned transform: for
// arbitrary small grids (odd and even, non-square) and a run of pairs, a
// pair spectrum transformed through the grid-corner Transform2DInto pass
// must reproduce the full-torus fields bitwise, with every site finite.
func FuzzBatchedDraw(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint8(3), int64(1))
	f.Add(uint8(1), uint8(7), uint8(1), int64(9))
	f.Add(uint8(5), uint8(2), uint8(4), int64(-3))
	f.Fuzz(func(t *testing.T, rows8, cols8, pairs8 uint8, seed int64) {
		rows := int(rows8)%8 + 1
		cols := int(cols8)%8 + 1
		pairs := int(pairs8)%5 + 1
		s := qmcTestSampler(t, rows, cols)
		tm, tn := s.TorusDims()
		sites := s.Grid().Sites()
		scratch := make([]complex128, fft.Scratch2DLen(tm, tn))
		corner := make([]complex128, s.TorusLen())
		full := make([]complex128, s.TorusLen())
		stream := stats.NewStream(seed, "fuzz-batch#")
		fa := make([]float64, sites)
		fb := make([]float64, sites)
		ra := make([]float64, sites)
		rb := make([]float64, sites)
		for p := 0; p < pairs; p++ {
			s.FillPairSpectrum(stats.NewRNG(stream.SeedFor(p), "pair"), corner)
			copy(full, corner)
			if err := fft.Transform2DInto(corner, tm, tn, rows, cols, true, scratch); err != nil {
				t.Fatal(err)
			}
			if err := fft.Transform2DInto(full, tm, tn, tm, tn, true, scratch); err != nil {
				t.Fatal(err)
			}
			s.ExtractPair(full, 0, ra)
			s.ExtractPair(full, 1, rb)
			s.ExtractPair(corner, 0, fa)
			s.ExtractPair(corner, 1, fb)
			for i := 0; i < sites; i++ {
				if fa[i] != ra[i] || fb[i] != rb[i] {
					t.Fatalf("%dx%d pair %d site %d: corner (%v, %v) != full (%v, %v)",
						rows, cols, p, i, fa[i], fb[i], ra[i], rb[i])
				}
				if math.IsNaN(fa[i]) || math.IsInf(fa[i], 0) || math.IsNaN(fb[i]) || math.IsInf(fb[i], 0) {
					t.Fatalf("non-finite site %d in pair %d", i, p)
				}
			}
		}
	})
}

// pairLawCase is one embedding of the pair-law tests. tol bounds each
// channel's covariance error against the kernel: round-off when exact, the
// documented 2·ClampBias·σ_WID² when clamped.
type pairLawCase struct {
	name string
	proc *spatial.Process
	s    *GridSampler
	tol  float64
}

// kernel is the target WID covariance at grid lag (dr, dc).
func (c pairLawCase) kernel(dr, dc int) float64 {
	vw := c.proc.SigmaWID * c.proc.SigmaWID
	return vw * c.proc.WIDCorr.Rho(c.s.Grid().LagDist(dr, dc))
}

// pairLawCases returns the two embeddings the pair-law tests run on: an
// exact embedding of the short-range test kernel, and the clamped
// grid-minimal embedding of the default process's 4 mm kernel.
func pairLawCases(t *testing.T) []pairLawCase {
	t.Helper()
	exact := gridTestProcess()
	clamped := spatial.Default90nm()
	cases := []pairLawCase{
		{name: "exact", proc: exact},
		{name: "clamped", proc: clamped},
	}
	grids := []placement.Grid{{Rows: 6, Cols: 9, SiteW: 2, SiteH: 2}, {Rows: 12, Cols: 12, SiteW: 2, SiteH: 2}}
	for i := range cases {
		c := &cases[i]
		s, err := NewGridSampler(c.proc, grids[i])
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		c.s = s
		vw := c.proc.SigmaWID * c.proc.SigmaWID
		switch bias := s.ClampBias(); {
		case c.name == "exact" && bias != 0:
			t.Fatalf("exact: clamp bias %g", bias)
		case c.name == "clamped" && bias <= 0:
			t.Fatal("clamped: the embedding is exact, want a clamped torus")
		}
		c.tol = math.Max(1e-12, 2*s.ClampBias()) * vw
	}
	return cases
}

// TestPairChannelsExactLaw computes each channel's covariance exactly. A
// channel is linear in the pair's 2·modes white normals, so pushing one unit
// normal at a time through SetMode, the inverse transform and ExtractPair
// yields its coefficients, and Cov(ch_a, ch_b) = Σ c_a·c_b over the normals.
// At every pair of grid sites the real and the imaginary channel must each
// equal the realized torus covariance — the normalized inverse DFT of the
// retained spectrum, the identity the lag-exactness test uses — to
// round-off, and through it the kernel within tol; the cross-covariance
// between the two channels must vanish to round-off.
func TestPairChannelsExactLaw(t *testing.T) {
	for _, c := range pairLawCases(t) {
		t.Run(c.name, func(t *testing.T) {
			s := c.s
			g := s.Grid()
			sites := g.Sites()
			tm, tn := s.TorusDims()
			mn := float64(tm * tn)
			scratch := make([]complex128, fft.Scratch2DLen(tm, tn))
			// Realized torus covariance at every lag.
			realized := make([]complex128, tm*tn)
			for k, a := range s.scale {
				realized[k] = complex(a*a*mn, 0)
			}
			if err := fft.Transform2DInto(realized, tm, tn, tm, tn, true, scratch); err != nil {
				t.Fatal(err)
			}
			// coef[ch][u·sites + site]: channel ch's coefficient on normal u.
			var coef [2][]float64
			torus := make([]complex128, tm*tn)
			field := make([]float64, sites)
			for k, a := range s.scale {
				if a == 0 {
					continue
				}
				for _, g12 := range [2][2]float64{{1, 0}, {0, 1}} {
					clear(torus)
					s.SetMode(torus, k, g12[0], g12[1])
					if err := fft.Transform2DInto(torus, tm, tn, g.Rows, g.Cols, true, scratch); err != nil {
						t.Fatal(err)
					}
					for ch := range coef {
						s.ExtractPair(torus, ch, field)
						coef[ch] = append(coef[ch], field...)
					}
				}
			}
			normals := len(coef[0]) / sites
			cov := func(x, y []float64, i, j int) float64 {
				sum := 0.0
				for u := 0; u < normals; u++ {
					sum += x[u*sites+i] * y[u*sites+j]
				}
				return sum
			}
			vw := real(realized[0]) / mn
			var worstRealized, worstKernel, worstCross float64
			for i := 0; i < sites; i++ {
				for j := 0; j < sites; j++ {
					dr, dc := j/g.Cols-i/g.Cols, j%g.Cols-i%g.Cols
					lag := ((dr+tm)%tm)*tn + (dc+tn)%tn
					want := real(realized[lag]) / mn
					kernel := c.kernel(dr, dc)
					for ch := range coef {
						got := cov(coef[ch], coef[ch], i, j)
						worstRealized = math.Max(worstRealized, math.Abs(got-want))
						worstKernel = math.Max(worstKernel, math.Abs(got-kernel))
					}
					worstCross = math.Max(worstCross, math.Abs(cov(coef[0], coef[1], i, j)))
				}
			}
			if tol := 1e-12 * vw; worstRealized > tol {
				t.Errorf("worst channel covariance off the realized torus covariance by %g > %g", worstRealized, tol)
			}
			if worstKernel > c.tol {
				t.Errorf("worst channel covariance off the kernel by %g > %g", worstKernel, c.tol)
			}
			if tol := 1e-12 * vw; worstCross > tol {
				t.Errorf("worst cross-channel covariance %g > %g", worstCross, tol)
			}
		})
	}
}

// TestPairChannelsCrossCovariance checks the pairing statistically through
// the sampling pipeline: over many pseudo-random pairs the sample
// covariance between one channel at site 0 and the other channel at lag 0
// and a few grid lags stays within z·SE of 0, SE = σ_WID²/√n for
// independent channels.
func TestPairChannelsCrossCovariance(t *testing.T) {
	const pairs = 4000
	const z = 5.0
	for _, c := range pairLawCases(t) {
		t.Run(c.name, func(t *testing.T) {
			s := c.s
			g := s.Grid()
			d := newPairDrawer(s)
			fa := make([]float64, g.Sites())
			fb := make([]float64, g.Sites())
			lags := [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 3}}
			re0 := make([]float64, pairs)
			im0 := make([]float64, pairs)
			re := make([][]float64, len(lags))
			im := make([][]float64, len(lags))
			for i := range lags {
				re[i] = make([]float64, pairs)
				im[i] = make([]float64, pairs)
			}
			rng := stats.NewRNG(23, "pair-cross-"+c.name)
			for p := 0; p < pairs; p++ {
				d.draw(t, rng, fa, fb)
				re0[p], im0[p] = fa[0], fb[0]
				for i, l := range lags {
					re[i][p], im[i][p] = fa[l[0]*g.Cols+l[1]], fb[l[0]*g.Cols+l[1]]
				}
			}
			band := z * c.kernel(0, 0) / math.Sqrt(pairs)
			for i, l := range lags {
				if cv := covariance(re0, im[i]); math.Abs(cv) > band {
					t.Errorf("cov(real site 0, imag lag %v) = %.3g, want 0 ± %.3g", l, cv, band)
				}
				if cv := covariance(im0, re[i]); math.Abs(cv) > band {
					t.Errorf("cov(imag site 0, real lag %v) = %.3g, want 0 ± %.3g", l, cv, band)
				}
			}
		})
	}
}
