package core

import (
	"math"
	"sync"
	"testing"

	"leakest/internal/charlib"
	"leakest/internal/stats"
)

// mehlerFixtures returns the libraries the Mehler series is held to, each
// with a uniform histogram over all of its cells: the ISCAS subset, the
// core subset and (outside -short) the full 62-cell library.
func mehlerFixtures(t *testing.T) map[string]*charlib.Library {
	t.Helper()
	libs := map[string]func() (*charlib.Library, error){
		"iscas": charlib.SharedISCAS,
		"core":  charlib.SharedCore,
	}
	if !testing.Short() {
		libs["full"] = charlib.SharedFull
	}
	out := map[string]*charlib.Library{}
	for name, get := range libs {
		lib, err := get()
		if err != nil {
			t.Fatal(err)
		}
		out[name] = lib
	}
	return out
}

// uniformModel builds a model over every cell of lib, equally weighted.
func uniformModel(t *testing.T, lib *charlib.Library, mode Mode) *Model {
	t.Helper()
	w := map[string]float64{}
	for _, c := range lib.Cells {
		w[c.Name] = 1
	}
	h, err := stats.NewHistogram(w)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(lib, lib.Process, DesignSpec{Hist: h, N: 100, W: 100, H: 100, SignalProb: 0.5}, mode)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// exactTypeCov is the covariance of one gate of type a and one of type b
// from the bivariate closed form: Σ_s Σ_t P(s)·P(t)·PairCov(s, t, ρ).
func exactTypeCov(t *testing.T, m *Model, a, b *charlib.CellChar, rho float64) float64 {
	t.Helper()
	mu, sigma := m.Proc.LNominal, m.Proc.TotalSigma()
	p := m.Spec.SignalProb
	total := 0.0
	for i := range a.States {
		wa := a.StateProb(a.States[i].State, p)
		for j := range b.States {
			wb := b.StateProb(b.States[j].State, p)
			cov, err := charlib.PairCov(&a.States[i], &b.States[j], rho, mu, sigma)
			if err != nil {
				t.Fatal(err)
			}
			total += wa * wb * cov
		}
	}
	return total
}

// mehlerTol bounds the model's covariances against the PairCov double sum,
// relative to the exact value at ρ = 1. The gap is PairCov's own: its 2-D
// closed form cancels as ρ → 1, so it grows there. Measured worst: F
// 4e-11 of F(1) on the subsets and 4.5e-10 on the full library, a type
// pair 5e-11 and 7.1e-10 (DFFR_X1 with itself at ρ = 0.9837). F's cubic
// pieces add at most 2e-11.
const mehlerTol = 1e-9

// F (CovAtCorr) and every type pair's covariance (PairCovAtCorr) must
// match the exact PairCov double sum at 100 off-knot ρ on every fixture.
func TestMehlerCovMatchesPairCov(t *testing.T) {
	for name, lib := range mehlerFixtures(t) {
		m := uniformModel(t, lib, Analytic)
		cs := make([]*charlib.CellChar, len(lib.Cells))
		alpha := make([]float64, len(lib.Cells))
		for i := range lib.Cells {
			cs[i] = &lib.Cells[i]
			alpha[i] = m.Spec.Hist.Prob(cs[i].Name)
		}
		// exact returns F and the type-pair covariances (a ≤ b) at rho.
		exact := func(rho float64) (float64, []float64) {
			f, pairs := 0.0, []float64(nil)
			for i, a := range cs {
				for j := i; j < len(cs); j++ {
					v := exactTypeCov(t, m, a, cs[j], rho)
					pairs = append(pairs, v)
					if i == j {
						f += alpha[i] * alpha[i] * v
					} else {
						f += 2 * alpha[i] * alpha[j] * v
					}
				}
			}
			return f, pairs
		}
		f1, pairs1 := exact(1)
		worstF, worstPair := 0.0, 0.0
		for q := range 100 {
			rho := (float64(q) + 0.37) / 100
			f, pairs := exact(rho)
			if d := math.Abs(m.CovAtCorr(rho)-f) / f1; !(d <= mehlerTol) {
				t.Fatalf("%s ρ=%g: F %g, PairCov sum %g: %.3g of F(1)", name, rho, m.CovAtCorr(rho), f, d)
			} else {
				worstF = max(worstF, d)
			}
			k := 0
			for i, a := range cs {
				for j := i; j < len(cs); j++ {
					got, err := m.PairCovAtCorr(a.Name, cs[j].Name, rho)
					if err != nil {
						t.Fatal(err)
					}
					if d := math.Abs(got-pairs[k]) / pairs1[k]; !(d <= mehlerTol) {
						t.Fatalf("%s %s/%s ρ=%g: %g, PairCov sum %g: %.3g of its ρ=1 value", name, a.Name, cs[j].Name, rho, got, pairs[k], d)
					} else {
						worstPair = max(worstPair, d)
					}
					k++
				}
			}
		}
		t.Logf("%s: %d cells, worst F %.3g of F(1), worst type pair %.3g", name, len(cs), worstF, worstPair)
	}
}

// Under the simplified ρ_leak = ρ_L mapping F is the line ρ·(Σ w σ)², run
// through the same pieces as the analytic F.
func TestSimplifiedCovIsLine(t *testing.T) {
	lib := testLib(t)
	for _, mode := range []Mode{MCSimplified, AnalyticSimplified} {
		m := uniformModel(t, lib, mode)
		s2 := m.CorrMass() * m.CorrMass()
		for q := range 101 {
			rho := float64(q) / 100
			want := rho * s2
			if got := m.CovAtCorr(rho); math.Abs(got-want) > 1e-15*s2 {
				t.Fatalf("%v ρ=%g: F %g, ρ·(Σwσ)² %g", mode, rho, got, want)
			}
		}
	}
}

// The truncation bound stated on charlib.Hermite: every state of the
// fixture libraries has |u| ≤ 0.31 and |v| ≤ 0.013, and there
// Σ_{k>K} ĥ_k²/k! < 1.9e-14, with ĥ the coefficient recursion on |u|, |v|.
func TestMehlerTruncationBound(t *testing.T) {
	const maxU, maxV = 0.31, 0.013
	for name, lib := range mehlerFixtures(t) {
		for _, c := range lib.Cells {
			for i := range c.States {
				h := c.States[i].Hermite()
				u := h[0]
				v := (h[1] - u*u) / 2 // h₂ = u² + 2v
				if math.Abs(u) > maxU || math.Abs(v) > maxV {
					t.Errorf("%s %s state %d: u = %g, v = %g beyond the stated bound", name, c.Name, c.States[i].State, u, v)
				}
			}
		}
	}
	hPrev, h, fact, tail := 1.0, maxU, 1.0, 0.0
	for k := 1; k < 80; k++ { // h = ĥ_k
		fact *= float64(k)
		if k > charlib.HermiteTerms {
			tail += h * h / fact
		}
		h, hPrev = maxU*h+2*maxV*float64(k)*hPrev, h
	}
	if !(tail < 1.9e-14) {
		t.Errorf("tail bound %g, documented < 1.9e-14", tail)
	}
}

// A Model is immutable after NewModelCtx: its readers may run from many
// goroutines at once, histogram types and other library types alike (run
// under -race by make race-parallel).
func TestModelConcurrentReads(t *testing.T) {
	m := newTestModel(t, 400, Analytic)
	types := []string{"INV_X1", "NAND2_X1", "XOR2_X1", "NAND3_X1"} // the last is outside testHist
	want := make([]float64, len(types))
	for i, a := range types {
		v, err := m.PairCovAtCorr(a, types[0], 0.5)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				k := (g + i) % len(types)
				if _, _, err := m.CellStats(types[k]); err != nil {
					t.Error(err)
					return
				}
				got, err := m.PairCovAtCorr(types[k], types[0], 0.5)
				if err != nil || got != want[k] {
					t.Errorf("%s: PairCovAtCorr %g, %v; want %g", types[k], got, err, want[k])
					return
				}
				_ = m.CovAtCorr(float64(i) / 200)
			}
		}()
	}
	wg.Wait()
}
