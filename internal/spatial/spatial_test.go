package spatial

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func corrFuncs() []CorrFunc {
	return []CorrFunc{
		ExpCorr{Lambda: 500},
		GaussCorr{Lambda: 800},
		SphericalCorr{R: 2000},
		TruncatedExpCorr{Lambda: 500, R: 2500},
	}
}

func TestCorrFuncAxioms(t *testing.T) {
	for _, cf := range corrFuncs() {
		if r0 := cf.Rho(0); math.Abs(r0-1) > 1e-12 {
			t.Errorf("%s: ρ(0) = %g, want 1", cf.Name(), r0)
		}
		prev := 1.0
		for d := 0.0; d <= 5000; d += 50 {
			r := cf.Rho(d)
			if r < -1e-12 || r > 1+1e-12 {
				t.Errorf("%s: ρ(%g) = %g out of [0,1]", cf.Name(), d, r)
			}
			if r > prev+1e-12 {
				t.Errorf("%s: ρ not non-increasing at d=%g (%g > %g)", cf.Name(), d, r, prev)
			}
			prev = r
		}
		if cf.Name() == "" {
			t.Errorf("empty name")
		}
	}
}

func TestFiniteSupport(t *testing.T) {
	s := SphericalCorr{R: 1000}
	if s.Rho(1000) != 0 || s.Rho(1500) != 0 {
		t.Errorf("spherical must vanish beyond R")
	}
	if s.Range() != 1000 {
		t.Errorf("Range = %g", s.Range())
	}
	te := TruncatedExpCorr{Lambda: 300, R: 1200}
	if te.Rho(1200) != 0 {
		t.Errorf("truncexp must vanish at R")
	}
	// Continuity at the truncation point.
	if v := te.Rho(1200 - 1e-9); math.Abs(v) > 1e-10 {
		t.Errorf("truncexp discontinuous at R: ρ(R⁻) = %g", v)
	}
	if !math.IsInf(ExpCorr{Lambda: 1}.Range(), 1) {
		t.Errorf("exp Range should be +Inf")
	}
	if !math.IsInf(GaussCorr{Lambda: 1}.Range(), 1) {
		t.Errorf("gauss Range should be +Inf")
	}
}

// The Range contract: every CorrFunc, built-in or built from a CorrSpec,
// returns exactly 0 for every d > Range() — just past R, out to 10R and at
// +Inf. The O(n) estimators' range tail adds one constant covariance for
// all such lags instead of evaluating ρ, so a non-zero value here would
// silently change their sums.
func TestCorrFuncZeroBeyondRange(t *testing.T) {
	funcs := append(corrFuncs(),
		SphericalCorr{R: 1e-3}, SphericalCorr{R: 7.3e6},
		TruncatedExpCorr{Lambda: 30, R: 50}, TruncatedExpCorr{Lambda: 1e-3, R: 5},
		TruncatedExpCorr{Lambda: 1e300, R: 1e-300}, // the flat λ → ∞ limit
	)
	for _, spec := range []CorrSpec{
		{Type: "exp", Lambda: 120}, {Type: "gauss", Lambda: 40},
		{Type: "spherical", R: 333.3}, {Type: "truncexp", Lambda: 1000, R: 4000},
		{Type: "truncexp", Lambda: 0.1, R: 1e5},
	} {
		cf, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		funcs = append(funcs, cf)
	}
	for _, cf := range funcs {
		r := cf.Range()
		if math.IsInf(r, 1) {
			continue // unbounded support: no d lies beyond it
		}
		if !(r > 0) {
			t.Errorf("%s: Range = %g, want > 0 or +Inf", cf.Name(), r)
			continue
		}
		ds := []float64{math.Nextafter(r, math.Inf(1)), math.Inf(1)}
		for k := 1; k <= 90; k++ {
			ds = append(ds, r*(1+float64(k)/10))
		}
		for _, d := range ds {
			if v := cf.Rho(d); v != 0 {
				t.Errorf("%s: ρ(%g) = %g beyond Range %g, want exactly 0", cf.Name(), d, v, r)
			}
		}
	}
}

func TestTruncatedExpApproximatesExp(t *testing.T) {
	lam := 400.0
	e := ExpCorr{Lambda: lam}
	te := TruncatedExpCorr{Lambda: lam, R: 10 * lam}
	for d := 0.0; d < 3*lam; d += 37 {
		if diff := math.Abs(e.Rho(d) - te.Rho(d)); diff > 1e-3 {
			t.Errorf("d=%g: |exp−truncexp| = %g", d, diff)
		}
	}
}

func TestProcessValidate(t *testing.T) {
	p := Default90nm()
	if err := p.Validate(); err != nil {
		t.Fatalf("default process invalid: %v", err)
	}
	bad := []*Process{
		{LNominal: 0, SigmaWID: 0.001, WIDCorr: ExpCorr{Lambda: 1}},
		{LNominal: 0.09, SigmaD2D: -1},
		{LNominal: 0.09},
		{LNominal: 0.09, SigmaWID: 0.001, WIDCorr: nil},
		{LNominal: 0.09, SigmaWID: 0.001, WIDCorr: ExpCorr{Lambda: 1}, SigmaVt: -0.1},
		{LNominal: 0.09, SigmaWID: 0.05, WIDCorr: ExpCorr{Lambda: 1}}, // >25% of L
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bad process %d accepted", i)
		}
	}
}

func TestTotalSigmaAndCorr(t *testing.T) {
	p := &Process{
		LNominal: 0.09,
		SigmaD2D: 0.003,
		SigmaWID: 0.004,
		WIDCorr:  ExpCorr{Lambda: 1000},
	}
	if got := p.TotalSigma(); math.Abs(got-0.005) > 1e-15 {
		t.Errorf("TotalSigma = %g, want 0.005 (3-4-5)", got)
	}
	// ρ(0) = 1 regardless of split.
	if got := p.TotalCorr(0); math.Abs(got-1) > 1e-12 {
		t.Errorf("TotalCorr(0) = %g", got)
	}
	// At infinity, the D2D floor remains: 9/25.
	if got := p.TotalCorr(1e12); math.Abs(got-0.36) > 1e-9 {
		t.Errorf("TotalCorr(∞) = %g, want 0.36", got)
	}
	if got := p.CorrFloor(); math.Abs(got-0.36) > 1e-12 {
		t.Errorf("CorrFloor = %g, want 0.36", got)
	}
	// WID-only process: floor is zero.
	w := p.WIDOnly()
	if w.CorrFloor() != 0 {
		t.Errorf("WIDOnly floor = %g", w.CorrFloor())
	}
	if w.SigmaD2D != 0 || p.SigmaD2D == 0 {
		t.Errorf("WIDOnly must zero D2D without mutating the original")
	}
	// Degenerate process (no variation): correlation 0 by convention.
	z := &Process{LNominal: 0.09}
	if z.TotalCorr(5) != 0 || z.CorrFloor() != 0 {
		t.Errorf("zero-variation process should report zero correlation")
	}
}

// Property: TotalCorr is within [floor, 1] and non-increasing for all
// correlation families and random D2D/WID splits.
func TestTotalCorrProperty(t *testing.T) {
	f := func(split float64, famIdx uint8) bool {
		split = math.Abs(math.Mod(split, 1))
		fams := corrFuncs()
		p := &Process{
			LNominal: 0.09,
			SigmaD2D: 0.005 * math.Sqrt(split),
			SigmaWID: 0.005 * math.Sqrt(1-split),
			WIDCorr:  fams[int(famIdx)%len(fams)],
		}
		floor := p.CorrFloor()
		prev := 1.0
		for d := 0.0; d <= 6000; d += 100 {
			r := p.TotalCorr(d)
			if r < floor-1e-9 || r > 1+1e-9 || r > prev+1e-9 {
				return false
			}
			prev = r
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEffectiveRange(t *testing.T) {
	p := &Process{
		LNominal: 0.09,
		SigmaWID: 0.004,
		WIDCorr:  ExpCorr{Lambda: 1000},
	}
	r := p.EffectiveRange(1e-3)
	// exp(−r/1000) = 1e-3 ⇒ r ≈ 6907.8.
	if math.Abs(r-1000*math.Log(1000)) > 1 {
		t.Errorf("EffectiveRange = %g, want ≈ %g", r, 1000*math.Log(1000))
	}
	// Finite support wins.
	p.WIDCorr = SphericalCorr{R: 1234}
	if got := p.EffectiveRange(1e-3); got != 1234 {
		t.Errorf("finite-support EffectiveRange = %g, want 1234", got)
	}
	// No WID variation ⇒ zero range.
	p2 := &Process{LNominal: 0.09, SigmaD2D: 0.005}
	if got := p2.EffectiveRange(1e-3); got != 0 {
		t.Errorf("no-WID EffectiveRange = %g", got)
	}
	// eps ≤ 0 defaults sanely rather than looping forever.
	p.WIDCorr = ExpCorr{Lambda: 10}
	if got := p.EffectiveRange(0); got <= 0 || math.IsInf(got, 1) {
		t.Errorf("eps=0 EffectiveRange = %g", got)
	}
}

func TestDefault90nmShape(t *testing.T) {
	p := Default90nm()
	if p.LNominal != 0.09 {
		t.Errorf("LNominal = %g", p.LNominal)
	}
	// Equal split between D2D and WID.
	if math.Abs(p.SigmaD2D-p.SigmaWID) > 1e-15 {
		t.Errorf("expected 50/50 split, got %g vs %g", p.SigmaD2D, p.SigmaWID)
	}
	if math.Abs(p.TotalSigma()-0.04*0.09) > 1e-12 {
		t.Errorf("total sigma = %g", p.TotalSigma())
	}
	if !strings.Contains(p.WIDCorr.Name(), "truncexp") {
		t.Errorf("unexpected default correlation %s", p.WIDCorr.Name())
	}
}

func TestValidatePSD(t *testing.T) {
	// The exponential family is PSD in the plane: no jitter needed.
	p := &Process{
		LNominal: 0.09,
		SigmaD2D: 0.0025,
		SigmaWID: 0.0025,
		WIDCorr:  ExpCorr{Lambda: 50},
	}
	jit, err := p.ValidatePSD(8, 10)
	if err != nil {
		t.Fatalf("exp model rejected: %v", err)
	}
	if jit > 1e-8 {
		t.Errorf("exp model needed jitter %g", jit)
	}
	// The Gaussian family is PSD too but numerically marginal on dense
	// grids (eigenvalues decay extremely fast); it must at worst need a
	// tiny jitter.
	p.WIDCorr = GaussCorr{Lambda: 60}
	if _, err := p.ValidatePSD(8, 10); err != nil {
		t.Errorf("gaussian model rejected: %v", err)
	}
	// Bounds checking.
	if _, err := p.ValidatePSD(1, 10); err == nil {
		t.Errorf("grid dim 1 accepted")
	}
	if _, err := p.ValidatePSD(8, 0); err == nil {
		t.Errorf("zero pitch accepted")
	}
	// The truncated exponential is not an exactly valid correlation in the
	// plane; document the diagnostic outcome (jitter or clean) rather than
	// assert failure — it must at least not error with the default repair.
	p.WIDCorr = TruncatedExpCorr{Lambda: 30, R: 120}
	jit, err = p.ValidatePSD(10, 12)
	if err != nil {
		t.Errorf("truncexp beyond repair: %v", err)
	}
	t.Logf("truncexp PSD jitter: %g", jit)
}
