package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"leakest/internal/charlib"
	"leakest/internal/lkerr"
	"leakest/internal/netlist"
	"leakest/internal/placement"
	"leakest/internal/quad"
	"leakest/internal/spatial"
	"leakest/internal/stats"
)

// testProcess returns a process whose correlation length suits the small
// dies of the test circuits (tens to hundreds of µm).
func testProcess() *spatial.Process {
	base := spatial.Default90nm()
	return &spatial.Process{
		LNominal: base.LNominal,
		SigmaD2D: base.SigmaD2D,
		SigmaWID: base.SigmaWID,
		SigmaVt:  base.SigmaVt,
		WIDCorr:  spatial.TruncatedExpCorr{Lambda: 30, R: 120},
	}
}

func testLib(t *testing.T) *charlib.Library {
	t.Helper()
	lib, err := charlib.SharedCore()
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func testHist(t *testing.T) *stats.Histogram {
	t.Helper()
	h, err := stats.NewHistogram(map[string]float64{
		"INV_X1": 3, "NAND2_X1": 3, "NOR2_X1": 2, "AOI21_X1": 1, "XOR2_X1": 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func squareSpec(t *testing.T, n int) DesignSpec {
	t.Helper()
	side := int(math.Sqrt(float64(n)))
	if side*side != n {
		t.Fatalf("squareSpec needs a perfect square, got %d", n)
	}
	w := float64(side) * placement.DefaultSitePitch
	return DesignSpec{Hist: testHist(t), N: n, W: w, H: w, SignalProb: 0.5}
}

func newTestModel(t *testing.T, n int, mode Mode) *Model {
	t.Helper()
	m, err := NewModel(testLib(t), testProcess(), squareSpec(t, n), mode)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestModelValidation(t *testing.T) {
	lib := testLib(t)
	proc := testProcess()
	good := squareSpec(t, 64)
	if _, err := NewModel(nil, proc, good, Analytic); err == nil {
		t.Errorf("nil library accepted")
	}
	bad := good
	bad.N = 0
	if _, err := NewModel(lib, proc, bad, Analytic); err == nil {
		t.Errorf("zero gate count accepted")
	}
	bad = good
	bad.W = -1
	if _, err := NewModel(lib, proc, bad, Analytic); err == nil {
		t.Errorf("negative width accepted")
	}
	bad = good
	bad.SignalProb = 2
	if _, err := NewModel(lib, proc, bad, Analytic); err == nil {
		t.Errorf("signal probability 2 accepted")
	}
	bad = good
	bad.Hist, _ = stats.NewHistogram(map[string]float64{"UNKNOWN": 1})
	if _, err := NewModel(lib, proc, bad, Analytic); err == nil {
		t.Errorf("unknown cell accepted")
	}
	// Mismatched process sigma must be rejected.
	wrong := *proc
	wrong.SigmaWID *= 2
	if _, err := NewModel(lib, &wrong, good, Analytic); err == nil {
		t.Errorf("inconsistent process accepted")
	}
	// nil process falls back to the library's.
	m, err := NewModel(lib, nil, good, Analytic)
	if err != nil {
		t.Fatalf("nil process: %v", err)
	}
	if m.Proc != lib.Process {
		t.Errorf("nil process did not default to the library process")
	}
}

func TestRGMomentsMatchDirectComputation(t *testing.T) {
	// Eqs. 7–8: µ_XI = Σ α_i µ_i, E[X²] = Σ α_i(σ_i²+µ_i²), over the
	// state-weighted variants.
	m := newTestModel(t, 64, Analytic)
	mu, m2 := 0.0, 0.0
	for _, name := range m.Spec.Hist.Labels() {
		cc, err := m.Lib.Cell(name)
		if err != nil {
			t.Fatal(err)
		}
		a := m.Spec.Hist.Prob(name)
		cm, cs := cc.EffectiveStats(0.5, false)
		mu += a * cm
		m2 += a * (cs*cs + cm*cm)
	}
	if math.Abs(m.MeanPerGate()-mu) > 1e-15 {
		t.Errorf("µ_XI = %g, direct %g", m.MeanPerGate(), mu)
	}
	if math.Abs(m.RGVariance()-(m2-mu*mu)) > 1e-18 {
		t.Errorf("σ²_XI = %g, direct %g", m.RGVariance(), m2-mu*mu)
	}
}

func TestCovarianceStructure(t *testing.T) {
	for _, mode := range []Mode{Analytic, MCSimplified} {
		m := newTestModel(t, 64, mode)
		// Eq. 11: the diagonal is the RG variance, strictly above F(1)
		// because gate choice adds variance at a single site.
		if got := m.CovAtDist(0); got != m.RGVariance() {
			t.Errorf("%v: C(0) = %g, want σ²_XI = %g", mode, got, m.RGVariance())
		}
		f1 := m.CovAtCorr(1)
		if f1 >= m.RGVariance() {
			t.Errorf("%v: F(1) = %g should be below σ²_XI = %g", mode, f1, m.RGVariance())
		}
		if f0 := m.CovAtCorr(0); f0 != 0 {
			t.Errorf("%v: F(0) = %g, want 0", mode, f0)
		}
		// Monotone non-increasing in distance.
		prev := math.Inf(1)
		for d := 1.0; d < 300; d += 10 {
			c := m.CovAtDist(d)
			if c > prev+1e-18 {
				t.Errorf("%v: covariance increased at d=%g", mode, d)
			}
			if c < 0 {
				t.Errorf("%v: negative covariance at d=%g", mode, d)
			}
			prev = c
		}
		// Beyond the WID range only the D2D floor remains.
		floor := m.CovAtCorr(m.Proc.CorrFloor())
		if got := m.CovAtDist(1e6); math.Abs(got-floor) > 1e-9*floor {
			t.Errorf("%v: C(∞) = %g, want floor %g", mode, got, floor)
		}
		if floor <= 0 {
			t.Errorf("%v: correlation floor missing", mode)
		}
	}
}

// The central identity: the Eq. 17 distance-histogram regrouping is an
// EXACT transformation of the Eq. 15 double sum over a full k×m grid.
func TestLinearEqualsBruteForceOnFullGrid(t *testing.T) {
	m := newTestModel(t, 36, Analytic) // 6×6 grid, 36 = N so no occupancy scaling
	res, err := m.EstimateLinear()
	if err != nil {
		t.Fatal(err)
	}
	if res.Note != "" {
		t.Fatalf("expected exact grid, got note %q", res.Note)
	}
	k, cols := res.GridRows, res.GridCols
	if k*cols != 36 {
		t.Fatalf("grid %d×%d does not cover 36", k, cols)
	}
	dw := m.Spec.W / float64(cols)
	dh := m.Spec.H / float64(k)
	// Brute force Eq. 15 over all site pairs.
	variance := 0.0
	for a := 0; a < 36; a++ {
		ra, ca := a/cols, a%cols
		for b := 0; b < 36; b++ {
			rb, cb := b/cols, b%cols
			d := math.Hypot(float64(ca-cb)*dw, float64(ra-rb)*dh)
			variance += m.CovAtDist(d)
		}
	}
	want := math.Sqrt(variance)
	if math.Abs(res.Std-want)/want > 1e-12 {
		t.Errorf("linear σ = %.15g, brute force %.15g", res.Std, want)
	}
	if res.Mean != 36*m.MeanPerGate() {
		t.Errorf("mean = %g, want %g", res.Mean, 36*m.MeanPerGate())
	}
}

func TestLinearOccupancyScaling(t *testing.T) {
	// A prime gate count cannot factorize into a near-square grid; the
	// estimator must note the occupancy scaling and still produce sane
	// numbers close to the neighbouring square size.
	lib := testLib(t)
	proc := testProcess()
	spec := squareSpec(t, 144)
	spec.N = 149 // prime
	m, err := NewModel(lib, proc, spec, Analytic)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.EstimateLinear()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Note, "occupancy") {
		t.Errorf("expected occupancy note, got %q", res.Note)
	}
	ref, _ := newTestModel(t, 144, Analytic).EstimateLinear()
	// 149 gates should leak slightly more than 144 in both moments.
	if !(res.Mean > ref.Mean && res.Std > ref.Std) {
		t.Errorf("149-gate estimates (%g, %g) not above 144-gate (%g, %g)",
			res.Mean, res.Std, ref.Mean, ref.Std)
	}
	if res.Std > ref.Std*1.1 {
		t.Errorf("149-gate σ %g implausibly far above 144-gate %g", res.Std, ref.Std)
	}
}

// Fig. 7's foundation: the 2-D integral converges to the linear-time value
// as n grows.
func TestIntegralConvergesToLinear(t *testing.T) {
	for _, mode := range []Mode{Analytic, MCSimplified} {
		var prevErr float64 = math.Inf(1)
		for _, n := range []int{64, 1024, 4096} {
			m := newTestModel(t, n, mode)
			lin, err := m.EstimateLinear()
			if err != nil {
				t.Fatal(err)
			}
			integ, err := m.EstimateIntegral2D()
			if err != nil {
				t.Fatal(err)
			}
			relErr := math.Abs(stats.RelErr(integ.Std, lin.Std))
			t.Logf("%v n=%d: linear σ=%.4g, integral σ=%.4g, err=%.3f%%", mode, n, lin.Std, integ.Std, relErr)
			if relErr > prevErr*1.5 {
				t.Errorf("%v: integral error grew with n: %g%% after %g%%", mode, relErr, prevErr)
			}
			prevErr = relErr
		}
		if prevErr > 0.5 {
			t.Errorf("%v: integral error at n=4096 is %.3f%%, want < 0.5%%", mode, prevErr)
		}
	}
}

func TestPolarMatchesIntegral2D(t *testing.T) {
	// Polar is Eq. 20 in polar coordinates on the exact angular weight, so
	// it must agree with the 2-D integral wherever the correlation range
	// falls: inside the die, between its sides, past its diagonal, and for
	// an infinite-range correlation.
	exp := testProcess()
	exp.WIDCorr = spatial.ExpCorr{Lambda: 30}
	rect := squareSpec(t, 3025)
	rect.W, rect.H = 200, 60
	for _, tc := range []struct {
		name string
		proc *spatial.Process
		spec DesignSpec
	}{
		{"R<min(W,H)", testProcess(), squareSpec(t, 4096)}, // 128 µm die, R = 120 µm
		{"R>diagonal", testProcess(), squareSpec(t, 64)},   // 16 µm die
		{"min<R<max", testProcess(), rect},                 // 3,025 gates on 200×60 µm
		{"infinite-range", exp, squareSpec(t, 4096)},       // ρ < 1e-4 past the diagonal
	} {
		m, err := NewModel(testLib(t), tc.proc, tc.spec, Analytic)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := m.EstimateIntegral2D()
		if err != nil {
			t.Fatal(err)
		}
		p1, err := m.EstimatePolar()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if e := math.Abs(p1.Std/p2.Std - 1); e > 1e-6 {
			t.Errorf("%s: polar σ=%.10g vs 2-D σ=%.10g (%.3g apart)", tc.name, p1.Std, p2.Std, e)
		}
		if p1.Mean != p2.Mean {
			t.Errorf("%s: means differ: %g vs %g", tc.name, p1.Mean, p2.Mean)
		}
	}
}

func TestPolarWeight(t *testing.T) {
	// The closed-form weight against a fine θ quadrature of its definition,
	// ∫₀^{π/2} (W − r·cos θ)₊·(H − r·sin θ)₊ dθ, on both die orientations at
	// every branch: inside the short side, at each side, between them, at
	// the diagonal and past it.
	for _, d := range [][2]float64{{200, 60}, {60, 200}} {
		w, h := d[0], d[1]
		short, long, diag := math.Min(w, h), math.Max(w, h), math.Hypot(w, h)
		for _, r := range []float64{0, 0.5 * short, short, (short + long) / 2, long, (long + diag) / 2, diag, 1.5 * diag} {
			// The clipped integrand has kinks where a factor reaches zero;
			// each smooth piece gets its own 2,000 panels.
			clipped := func(th float64) float64 {
				s, c := math.Sincos(th)
				return math.Max(0, w-r*c) * math.Max(0, h-r*s)
			}
			cuts := []float64{0, math.Pi / 2}
			if r > w {
				cuts = append(cuts, math.Acos(w/r))
			}
			if r > h {
				cuts = append(cuts, math.Asin(h/r))
			}
			slices.Sort(cuts)
			ref := 0.0
			for i := 1; i < len(cuts); i++ {
				ref += quad.GaussLegendrePanels(clipped, cuts[i-1], cuts[i], 2000)
			}
			got := polarWeight(r, w, h)
			switch {
			case r > diag:
				if got != 0 {
					t.Errorf("W=%g H=%g r=%g: G = %g past the diagonal, want 0", w, h, r, got)
				}
			case r == diag:
				if math.Abs(got) > 1e-12*w*h {
					t.Errorf("W=%g H=%g r=%g: G = %g at the diagonal, want 0", w, h, r, got)
				}
			default:
				if e := math.Abs(got/ref - 1); e > 1e-10 {
					t.Errorf("W=%g H=%g r=%g: G = %.12g, quadrature %.12g (%.3g apart)", w, h, r, got, ref, e)
				}
			}
		}
	}
}

func TestNaiveUnderestimates(t *testing.T) {
	m := newTestModel(t, 4096, Analytic)
	naive, err := m.EstimateNaive()
	if err != nil {
		t.Fatal(err)
	}
	lin, _ := m.EstimateLinear()
	if naive.Mean != lin.Mean {
		t.Errorf("naive mean %g != linear mean %g", naive.Mean, lin.Mean)
	}
	// With strong within-die correlation the independence assumption must
	// underestimate σ badly (the paper's core motivation).
	if naive.Std > lin.Std/2 {
		t.Errorf("naive σ = %g not far below correlated σ = %g", naive.Std, lin.Std)
	}
}

func TestTrueStatsExactOnDeterministicDesign(t *testing.T) {
	// A design of a single 0-input cell (SRAM) has a deterministic RG: the
	// O(n²) true statistics must match the linear-time model estimate
	// exactly on a full grid.
	lib := testLib(t)
	proc := testProcess()
	hist, _ := stats.NewHistogram(map[string]float64{"SRAM6T": 1})
	n := 49
	side := 7
	w := float64(side) * placement.DefaultSitePitch
	spec := DesignSpec{Hist: hist, N: n, W: w, H: w, SignalProb: 0.5}
	m, err := NewModel(lib, proc, spec, Analytic)
	if err != nil {
		t.Fatal(err)
	}
	nl := &netlist.Netlist{Name: "sram-array", NumPI: 1}
	for i := 0; i < n; i++ {
		nl.Gates = append(nl.Gates, netlist.Gate{Type: "SRAM6T"})
	}
	grid, _ := placement.NewGrid(n, placement.DefaultSitePitch, placement.DefaultSitePitch, 1)
	pl, _ := placement.RowMajor(grid, n)

	truth, err := TrueStats(m, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := m.EstimateLinear()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(stats.RelErr(lin.Mean, truth.Mean)) > 1e-9 {
		t.Errorf("mean: linear %g vs true %g", lin.Mean, truth.Mean)
	}
	if math.Abs(stats.RelErr(lin.Std, truth.Std)) > 0.01 {
		t.Errorf("std: linear %g vs true %g", lin.Std, truth.Std)
	}
}

func TestTrueStatsRandomCircuitCloseToModel(t *testing.T) {
	// A random circuit drawn from the histogram: true stats approach the
	// RG estimate (Fig. 6's convergence) — at n=400 within a few percent.
	lib := testLib(t)
	proc := testProcess()
	byName := map[string]int{}
	for _, cc := range lib.Cells {
		byName[cc.Name] = cc.NumInputs
	}
	arity := func(typ string) (int, error) { return byName[typ], nil }
	hist := testHist(t)
	rng := stats.NewRNG(21, "true-vs-model")
	n := 400
	nl, err := netlist.RandomCircuit(rng, "rc400", n, 16, hist, arity)
	if err != nil {
		t.Fatal(err)
	}
	grid, _ := placement.AutoGrid(n)
	pl, err := placement.Random(rng, grid, n)
	if err != nil {
		t.Fatal(err)
	}
	spec := DesignSpec{Hist: hist, N: n, W: grid.W(), H: grid.H(), SignalProb: 0.5}
	m, err := NewModel(lib, proc, spec, Analytic)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := TrueStats(m, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := m.EstimateLinear()
	if err != nil {
		t.Fatal(err)
	}
	if e := math.Abs(stats.RelErr(lin.Mean, truth.Mean)); e > 5 {
		t.Errorf("mean error %.2f%% too large", e)
	}
	if e := math.Abs(stats.RelErr(lin.Std, truth.Std)); e > 8 {
		t.Errorf("std error %.2f%% too large", e)
	}
}

// TestTrueStatsErrors: an unknown cell type fails the pair sum. Empty
// netlists and placement mismatches are refused at the door, ExtractSpec
// (TestExtractSpec, TestExtractSpecRejectsInvalidPlacement).
func TestTrueStatsErrors(t *testing.T) {
	m := newTestModel(t, 64, Analytic)
	grid, _ := placement.AutoGrid(4)
	pl, _ := placement.RowMajor(grid, 4)
	unknown := &netlist.Netlist{Name: "u", NumPI: 1, Gates: []netlist.Gate{
		{Type: "NOPE"}, {Type: "NOPE"}, {Type: "NOPE"}, {Type: "NOPE"}}}
	if _, err := TrueStats(m, unknown, pl); err == nil {
		t.Errorf("unknown type accepted")
	}
}

func TestExtractSpec(t *testing.T) {
	nl := &netlist.Netlist{Name: "x", NumPI: 2, Gates: []netlist.Gate{
		{Type: "INV_X1", Fanins: []int{0}},
		{Type: "NAND2_X1", Fanins: []int{0, 1}},
		{Type: "INV_X1", Fanins: []int{2}},
		{Type: "NOR2_X1", Fanins: []int{2, 3}},
	}}
	grid, _ := placement.AutoGrid(4)
	pl, _ := placement.RowMajor(grid, 4)
	spec, err := ExtractSpec(nl, pl, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if spec.N != 4 || spec.W != grid.W() || spec.H != grid.H() {
		t.Errorf("spec = %+v", spec)
	}
	if spec.Hist.Prob("INV_X1") != 0.5 {
		t.Errorf("extracted P(INV) = %g", spec.Hist.Prob("INV_X1"))
	}
	empty := &netlist.Netlist{Name: "e", NumPI: 1}
	if _, err := ExtractSpec(empty, pl, 0.5); !lkerr.IsCode(err, lkerr.InvalidInput) {
		t.Errorf("empty netlist: got %v, want InvalidInput", err)
	}
	if _, err := ExtractSpec(empty, &placement.Placement{Grid: grid}, 0.5); !lkerr.IsCode(err, lkerr.InvalidInput) {
		t.Errorf("empty netlist on an empty placement: got %v, want InvalidInput", err)
	}
}

// TestExtractSpecRejectsInvalidPlacement: ExtractSpec is the door of every
// analytic late-mode path (TrueStats, PropagatedTrueStats and the
// gridmodel experiments extract first), so it refuses each broken
// placement with a typed InvalidInput naming it as the operation.
func TestExtractSpecRejectsInvalidPlacement(t *testing.T) {
	nl := &netlist.Netlist{Name: "x", NumPI: 1}
	for i := 0; i < 6; i++ {
		nl.Gates = append(nl.Gates, netlist.Gate{Type: "INV_X1", Fanins: []int{0}})
	}
	grid, _ := placement.AutoGrid(6)
	pl, _ := placement.RowMajor(grid, 6)
	edit := func(f func(site []int) []int) *placement.Placement {
		return &placement.Placement{Grid: grid, Site: f(append([]int(nil), pl.Site...))}
	}
	for name, bad := range map[string]*placement.Placement{
		"site past the grid": edit(func(s []int) []int { s[3] = grid.Sites() + 7; return s }),
		"negative site":      edit(func(s []int) []int { s[3] = -1; return s }),
		"shared site":        edit(func(s []int) []int { s[3] = s[1]; return s }),
		"short placement":    edit(func(s []int) []int { return s[:len(s)-1] }),
	} {
		_, err := ExtractSpec(nl, bad, 0.5)
		if !lkerr.IsCode(err, lkerr.InvalidInput) || !strings.Contains(err.Error(), "core.ExtractSpec") {
			t.Errorf("%s: got %v, want InvalidInput at core.ExtractSpec", name, err)
		}
	}
	if _, err := ExtractSpec(nl, pl, 0.5); err != nil {
		t.Errorf("valid placement refused: %v", err)
	}
}

func TestModeString(t *testing.T) {
	if Analytic.String() != "analytic" || MCSimplified.String() != "mc-simplified" {
		t.Errorf("mode strings: %s, %s", Analytic, MCSimplified)
	}
}

// §3.1.2: the simplified ρ_leak = ρ_L assumption changes the estimated σ
// by only a small amount relative to the exact mapping.
func TestSimplifiedAssumptionError(t *testing.T) {
	for _, wid := range []bool{true, false} {
		proc := testProcess()
		if wid {
			proc = proc.AllWID()
		}
		lib := testLib(t)
		spec := squareSpec(t, 1024)
		exact, err := NewModel(lib, proc, spec, Analytic)
		if err != nil {
			t.Fatal(err)
		}
		simp, err := NewModel(lib, proc, spec, MCSimplified)
		if err != nil {
			t.Fatal(err)
		}
		e, err := exact.EstimateLinear()
		if err != nil {
			t.Fatal(err)
		}
		s, err := simp.EstimateLinear()
		if err != nil {
			t.Fatal(err)
		}
		relErr := math.Abs(stats.RelErr(s.Std, e.Std))
		t.Logf("WID-only=%v: exact σ=%.4g, simplified σ=%.4g, err=%.2f%%", wid, e.Std, s.Std, relErr)
		// Paper reports < 2.8%; allow slack for the MC-vs-fit moment
		// differences that also separate the two modes here.
		if relErr > 6 {
			t.Errorf("WID-only=%v: simplified-assumption error %.2f%% too large", wid, relErr)
		}
	}
}
