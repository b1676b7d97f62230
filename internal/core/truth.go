package core

import (
	"context"
	"math"

	"leakest/internal/fault"
	"leakest/internal/lkerr"
	"leakest/internal/netlist"
	"leakest/internal/parallel"
	"leakest/internal/placement"
	"leakest/internal/telemetry"
)

// TrueStats computes the "true leakage" of a specific placed design: the
// O(n²) pairwise-covariance sum over all cell instances (Eq. 15), the
// late-mode baseline the paper validates against. The per-gate statistics
// are state-weighted at the model's signal probability, and pairwise
// covariances follow the model's mode (exact f_{m,n} mapping or the
// simplified ρ_leak = ρ_L assumption). The placed design is the one the
// model's spec was extracted from (ExtractSpec checked it).
func TrueStats(m *Model, nl *netlist.Netlist, pl *placement.Placement) (Result, error) {
	return TrueStatsCtx(context.Background(), m, nl, pl)
}

// TrueStatsCtx is TrueStats with cancellation: ctx is checked, and progress
// reported, once per gate.
//
// A pair's covariance depends only on its two gate types and its grid lag,
// so the pass counts the pairs of each (unordered type pair, lag) as
// integers and evaluates each lag's covariance once: Eq. 17's multiplicity
// trick on a real placement. Each gate scans the later sites (row-major
// half plane) inside the lag box that holds every lag with d ≤ R, the WID
// range: the whole grid when R is infinite or covers the die, nothing
// without WID variation. A pair outside the box lies past R, where ρ_L is
// the floor, so each type pair's remaining pairs — n_i·n_j, or n_i(n_i−1)/2
// for i = j, minus its box counts — add one product at F(ρ_floor). Workers
// count into their own int32 slots, merged by integer addition, so the
// result is bitwise identical at any worker count. The float terms go into
// a compensated sum, within about an ulp of the exactly rounded sum of the
// same pair terms, so a per-pair loop agrees to an ulp or so.
func TrueStatsCtx(ctx context.Context, m *Model, nl *netlist.Netlist, pl *placement.Placement) (Result, error) {
	const op = "core.TrueStats"
	ctx, end := telemetry.WithSpan(ctx, "core.truth")
	defer end()
	n := len(nl.Gates)

	// The types' statistics, once per type, and the termwise products of
	// their Mehler vectors per unordered type pair {i, j}, at index
	// pairOf[i·nt+j]: a lag's covariance for that pair is then one K-term
	// dot product with the lag's ρᵏ/k!.
	types := nl.SortedTypes()
	nt := len(types)
	tIdx := make(map[string]int32, nt)
	cells := make([]*cellCov, nt)
	for i, t := range types {
		tIdx[t] = int32(i)
		c, err := m.cellCovOf(t)
		if err != nil {
			return Result{}, err
		}
		cells[i] = c
	}
	pairOf := make([]int, nt*nt)
	var prods []terms
	var pairs [][2]int // the types i ≤ j of each pair
	for i := range types {
		for j := i; j < nt; j++ {
			pairOf[i*nt+j], pairOf[j*nt+i] = len(prods), len(prods)
			prods = append(prods, mehlerProducts(&cells[i].coef, &cells[j].coef))
			pairs = append(pairs, [2]int{i, j})
		}
	}

	// Per-gate moments in gate order, and the type grid: each site's gate
	// type, −1 where the site is empty.
	mean := 0.0
	var variance compSum
	grid := pl.Grid
	tg := make([]int32, grid.Sites())
	for s := range tg {
		tg[s] = -1
	}
	perType := make([]int64, nt)
	for g, gate := range nl.Gates {
		t := tIdx[gate.Type]
		mean += cells[t].mu
		variance.add(cells[t].sigma * cells[t].sigma)
		tg[pl.Site[g]] = t
		perType[t]++
	}

	bx := newTruthBox(grid, m.cov.r)
	counts, err := bx.count(ctx, op, m.Workers, tg, nt, pairOf)
	if err != nil {
		return Result{}, err
	}

	// Each counted lag's covariance once, then the pairs past the box at
	// the floor: PreparedCorr.At past R is vd/(vd+vw), bitwise CorrFloor,
	// so a floor pair weighs the same inside the box and out of it.
	endPre := telemetry.StartSpan(ctx, "truth.class_precompute")
	np := len(prods)
	corr := m.Proc.Prepare() // At is bitwise TotalCorr
	inBox := make([]int64, np)
	var window int64
	lags := bx.rows * bx.cols
	for dr := 0; dr < bx.rows; dr++ {
		for dc := 0; dc < bx.cols; dc++ {
			powered := false
			var rho float64
			var pw terms
			for p := range np {
				c := counts[p*lags+dr*bx.cols+dc]
				if c == 0 {
					continue
				}
				inBox[p] += int64(c)
				if !powered {
					rho = corr.At(grid.LagDist(dr, dc))
					pw, powered = mehlerPowers(min(rho, 1)), true
				}
				variance.add(float64(c) * pairCov2(&pw, &prods[p], rho))
			}
		}
	}
	rho := m.Proc.CorrFloor()
	pw := mehlerPowers(min(rho, 1))
	for p, ij := range pairs {
		ni, nj := perType[ij[0]], perType[ij[1]]
		total := ni * nj
		if ij[0] == ij[1] {
			total = ni * (ni - 1) / 2
		}
		window += inBox[p]
		if rest := total - inBox[p]; rest != 0 {
			variance.add(float64(rest) * pairCov2(&pw, &prods[p], rho))
		}
	}
	endPre()

	telemetry.SpanAttrInt(ctx, "pairs_in_window", window)
	telemetry.Add("truth_pairs_total", int64(n)*int64(n-1)/2)
	v := fault.Corrupt(fault.SiteTruthRow, variance.s+variance.c)
	return Result{
		Mean:   mean,
		Std:    math.Sqrt(v),
		Method: "true-n2",
	}.checkFinite(op)
}

// pairCov2 is one pair's contribution to the variance at total correlation
// rho, given rho's Mehler powers and the pair's Mehler products: 2·cov,
// with ρ ≤ 0 and a negative covariance contributing 0 as in PairCovAtCorr.
func pairCov2(pw, ab *terms, rho float64) float64 {
	if rho <= 0 {
		return 0
	}
	return 2 * max(mehlerDot(pw, ab), 0)
}

// truthBox is the lag box of the truth pass: lags (dr, dc) with
// 0 ≤ dr < rows and 0 ≤ dc < cols, which holds every lag of the grid with
// LagDist ≤ R.
type truthBox struct {
	grid       placement.Grid
	rows, cols int
}

// newTruthBox returns the lag box of a WID range r on grid: r < 0 (no WID
// variation) gives an empty box.
func newTruthBox(grid placement.Grid, r float64) truthBox {
	return truthBox{
		grid: grid,
		rows: boxReach(r, grid.SiteH, grid.Rows) + 1,
		cols: boxReach(r, grid.SiteW, grid.Cols) + 1,
	}
}

// boxReach returns the largest lag k < n along an axis of pitch p with
// k·p ≤ r (LagDist ≥ k·p, so any lag past it lies beyond r): −1 for r < 0,
// n − 1 when r covers the axis or is infinite.
func boxReach(r, p float64, n int) int {
	switch {
	case r < 0:
		return -1
	case !(r/p < float64(n)):
		return n - 1
	}
	k := min(int(r/p), n-1)
	for k+1 < n && float64(k+1)*p <= r {
		k++
	}
	for k >= 0 && float64(k)*p > r {
		k--
	}
	return k
}

// count returns the pair counts of the placed type grid tg (nt types, −1
// on an empty site) per unordered type pair and box lag, at index
// pairOf[i·nt+j]·L + dr·cols + dc with L = rows·cols. Every gate scans the
// later sites of the box, in row-major order, on one task per gate, and
// counts into its own type's block of ordered (type, partner) streams: a
// site holds its partner stream's offset, the one past the last type's
// when it is empty, so the scan neither branches nor looks a pair up.
// Each worker counts into its own nt(nt+1)·L int32 slots; the slots
// merge, and each ordered pair folds into its unordered one, by integer
// addition.
func (bx truthBox) count(ctx context.Context, op string, workers int, tg []int32, nt int, pairOf []int) ([]int32, error) {
	lags := bx.rows * bx.cols
	block := (nt + 1) * lags // a gate type's streams, the empty one last
	so := make([]int32, len(tg))
	gates := make([]int, 0, len(tg)) // occupied sites, row-major
	for s, t := range tg {
		so[s] = int32(nt * lags)
		if t >= 0 {
			so[s] = t * int32(lags)
			gates = append(gates, s)
		}
	}
	nw := max(parallel.Resolve(workers, len(gates)), 1)
	cnt := make([][]int32, nw)
	for w := range cnt {
		cnt[w] = make([]int32, nt*block)
	}
	rows, cols := bx.grid.Rows, bx.grid.Cols
	rep := telemetry.StartProgress(ctx, "core.truth", int64(len(gates)))
	tick := parallel.NewTicker(rep)
	err := parallel.ForEach(ctx, op, workers, len(gates), func(w, k int) error {
		fault.Hit(fault.SiteTruthRow)
		s := gates[k]
		ra, ca := s/cols, s%cols
		c, base := cnt[w], int(tg[s])*block
		lo, hi := max(ca-bx.cols+1, 0), min(ca+bx.cols, cols) // the box's site columns
		for r := ra; r < min(ra+bx.rows, rows); r++ {
			row := so[r*cols : (r+1)*cols]
			lag := base + (r-ra)*bx.cols // the stream index of dc = 0
			if r > ra {
				for col, o := range row[lo:ca] { // dc = ca − lo − col
					c[lag+ca-lo-col+int(o)]++
				}
			}
			first := ca
			if r == ra {
				first = ca + 1
			}
			for col, o := range row[first:hi] { // dc = first − ca + col
				c[lag+first-ca+col+int(o)]++
			}
		}
		tick.Tick()
		return nil
	})
	if err != nil {
		rep.Done(tick.Count())
		return nil, err
	}
	rep.Done(int64(len(gates)))
	for _, c := range cnt[1:] {
		for i, v := range c {
			cnt[0][i] += v
		}
	}
	out := make([]int32, nt*(nt+1)/2*lags)
	for i := 0; i < nt; i++ {
		for j := 0; j < nt; j++ {
			dst := out[pairOf[i*nt+j]*lags:][:lags]
			for l, v := range cnt[0][i*block+j*lags:][:lags] {
				dst[l] += v
			}
		}
	}
	return out, nil
}

// ExtractSpec derives the high-level design characteristics (Fig. 1) from a
// placed netlist — the late-mode extraction step: cell-usage histogram,
// gate count, and layout dimensions. Every analytic late-mode path passes
// here first, so this is where the placement is checked; TrueStats and
// PropagatedTrueStats trust it.
func ExtractSpec(nl *netlist.Netlist, pl *placement.Placement, signalProb float64) (DesignSpec, error) {
	const op = "core.ExtractSpec"
	if err := pl.Validate(len(nl.Gates)); err != nil {
		return DesignSpec{}, lkerr.Wrap(lkerr.InvalidInput, op, err)
	}
	hist, err := nl.Histogram()
	if err != nil {
		return DesignSpec{}, lkerr.Wrap(lkerr.InvalidInput, op, err)
	}
	spec := DesignSpec{
		Hist:       hist,
		N:          len(nl.Gates),
		W:          pl.Grid.W(),
		H:          pl.Grid.H(),
		SignalProb: signalProb,
	}
	return spec, spec.Validate()
}

// compSum is a Neumaier compensated running sum: its s + c is within about
// an ulp of the exactly rounded sum of everything added, however many
// terms of whatever order.
type compSum struct{ s, c float64 }

func (a *compSum) add(x float64) {
	t := a.s + x
	if math.Abs(a.s) >= math.Abs(x) {
		a.c += (a.s - t) + x
	} else {
		a.c += (x - t) + a.s
	}
	a.s = t
}
