package core

import (
	"math"
	"testing"

	"leakest/internal/netlist"
	"leakest/internal/placement"
	"leakest/internal/stats"
)

// randomPlacedCircuit draws a small random design for the sharding
// property tests.
func randomPlacedCircuit(t *testing.T, seed int64, n int) (*Model, *netlist.Netlist, *placement.Placement) {
	t.Helper()
	lib := testLib(t)
	byName := map[string]int{}
	for _, cc := range lib.Cells {
		byName[cc.Name] = cc.NumInputs
	}
	arity := func(typ string) (int, error) { return byName[typ], nil }
	hist := testHist(t)
	rng := stats.NewRNG(seed, "parallel-prop")
	nl, err := netlist.RandomCircuit(rng, "pp", n, 8, hist, arity)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := placement.AutoGrid(n)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := placement.Random(rng, grid, n)
	if err != nil {
		t.Fatal(err)
	}
	spec := DesignSpec{Hist: hist, N: n, W: grid.W(), H: grid.H(), SignalProb: 0.5}
	m, err := NewModel(lib, testProcess(), spec, Analytic)
	if err != nil {
		t.Fatal(err)
	}
	return m, nl, pl
}

// naiveTruthVariance is the reference implementation of Eq. 15's pair sum:
// a plain double loop over the upper triangle, with no pool involved. It
// adds the variance terms with Neumaier's compensated summation, so its σ
// is within about an ulp of the exactly rounded sum: a plain running sum
// over the ~3·10⁶ pairs of a 2,500-gate design drifts by ~20 ulps of σ.
// The mean is the plain sum in gate order, as TrueStats adds it.
func naiveTruthVariance(t *testing.T, m *Model, nl *netlist.Netlist, pl *placement.Placement) (mean, variance float64) {
	t.Helper()
	n := len(nl.Gates)
	xs := make([]float64, n)
	ys := make([]float64, n)
	var sum, comp float64
	add := func(x float64) {
		s := sum + x
		if math.Abs(sum) >= math.Abs(x) {
			comp += (sum - s) + x
		} else {
			comp += (x - s) + sum
		}
		sum = s
	}
	for g, gate := range nl.Gates {
		mu, sigma, err := m.CellStats(gate.Type)
		if err != nil {
			t.Fatal(err)
		}
		mean += mu
		add(sigma * sigma)
		xs[g], ys[g] = pl.Pos(g)
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			d := math.Hypot(xs[a]-xs[b], ys[a]-ys[b])
			rho := m.Proc.TotalCorr(d)
			if rho <= 0 {
				continue
			}
			sp, err := m.pairSpline(nl.Gates[a].Type, nl.Gates[b].Type)
			if err != nil {
				t.Fatal(err)
			}
			if cov := sp.Eval(min(rho, 1)); cov > 0 {
				add(2 * cov)
			}
		}
	}
	return mean, sum + comp
}

// TestTruthShardingMatchesNaiveDoubleLoop asserts the gate-sharded truth
// pass reproduces the naive reference double loop at every worker count,
// on several random small designs: the mean bit for bit, σ within
// truthRefULPs (the pass sums per type pair and lag, the loop per pair).
func TestTruthShardingMatchesNaiveDoubleLoop(t *testing.T) {
	for _, c := range []struct {
		seed int64
		n    int
	}{{3, 30}, {17, 77}, {42, 120}} {
		m, nl, pl := randomPlacedCircuit(t, c.seed, c.n)
		wantMean, wantVar := naiveTruthVariance(t, m, nl, pl)
		wantStd := math.Sqrt(wantVar)
		for _, w := range []int{1, 2, 3, 7} {
			m.Workers = w
			res, err := TrueStats(m, nl, pl)
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", c.n, w, err)
			}
			if res.Mean != wantMean || ulps(res.Std, wantStd) > truthRefULPs {
				t.Errorf("n=%d workers=%d: (mean, std) = (%x, %x), naive (%x, %x): σ %d ulps apart",
					c.n, w, res.Mean, res.Std, wantMean, wantStd, ulps(res.Std, wantStd))
			}
		}
	}
}

// TestLinearShardingBitwiseAcrossWorkers asserts the column-sharded
// distance-vector sum of Eq. 17 is bitwise stable across worker counts.
func TestLinearShardingBitwiseAcrossWorkers(t *testing.T) {
	for _, n := range []int{64, 400, 1024} {
		m := newTestModel(t, n, Analytic)
		m.Workers = 1
		ref, err := m.EstimateLinear()
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 3, 7} {
			m.Workers = w
			got, err := m.EstimateLinear()
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, w, err)
			}
			if got.Mean != ref.Mean || got.Std != ref.Std {
				t.Errorf("n=%d workers=%d: (%x, %x) != serial (%x, %x)",
					n, w, got.Mean, got.Std, ref.Mean, ref.Std)
			}
		}
	}
}

// TestLinearMultiplicityRegrouping verifies Eq. 17's combinatorial core
// stays intact under the sharded loop: the multiplicities n_ij =
// (m−|i|)(k−|j|) summed with their sign counts over all distance vectors
// (i, j) ≠ (0, 0) must total S(S−1), the number of ordered site pairs.
func TestLinearMultiplicityRegrouping(t *testing.T) {
	for _, g := range []struct{ k, cols int }{
		{1, 7}, {3, 3}, {4, 9}, {11, 5}, {20, 20},
	} {
		total := int64(0)
		for i := 0; i < g.cols; i++ {
			for j := 0; j < g.k; j++ {
				if i == 0 && j == 0 {
					continue
				}
				mult := int64((g.cols - i) * (g.k - j))
				count := int64(4)
				if i == 0 || j == 0 {
					count = 2
				}
				total += count * mult
			}
		}
		s := int64(g.k * g.cols)
		if total != s*(s-1) {
			t.Errorf("grid %dx%d: Σ count·(m−i)(k−j) = %d, want S(S−1) = %d",
				g.k, g.cols, total, s*(s-1))
		}
	}
}
