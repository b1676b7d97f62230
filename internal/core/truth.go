package core

import (
	"context"
	"math"

	"leakest/internal/fault"
	"leakest/internal/lkerr"
	"leakest/internal/netlist"
	"leakest/internal/parallel"
	"leakest/internal/placement"
	"leakest/internal/quad"
	"leakest/internal/telemetry"
)

// TrueStats computes the "true leakage" of a specific placed design: the
// O(n²) pairwise-covariance sum over all cell instances (Eq. 15), the
// late-mode baseline the paper validates against. The per-gate statistics
// are state-weighted at the model's signal probability, and pairwise
// covariances follow the model's mode (exact f_{m,n} mapping or the
// simplified ρ_leak = ρ_L assumption).
func TrueStats(m *Model, nl *netlist.Netlist, pl *placement.Placement) (Result, error) {
	return TrueStatsCtx(context.Background(), m, nl, pl)
}

// maxClassTableEntries bounds the total size of the distance-class kernel
// tables (float64 entries across all type pairs): 2^24 entries are 128 MiB,
// past which TrueStatsCtx silently keeps the untabulated per-pair loop.
const maxClassTableEntries = 1 << 24

// TrueStatsCtx is TrueStats with cancellation: the O(n²) pair loop checks
// ctx once per outer row — where it also reports progress — so a cancel
// lands within one row's work.
//
// When the placement grid has far fewer (|Δrow|, |Δcol|) lag classes than
// gate pairs — the usual case — the per-pair kernel work (distance, total
// correlation, spline evaluation) is precomputed once per class and type
// pair, turning the O(n²) inner loop into an indexed table lookup. The
// per-pair accumulation order is unchanged, and at the default power-of-two
// site pitch the class distances are bitwise equal to the per-pair
// distances, so the tabulated sum is bitwise identical to the historical
// loop (guarded by tests and the conformance ULP identities).
func TrueStatsCtx(ctx context.Context, m *Model, nl *netlist.Netlist, pl *placement.Placement) (Result, error) {
	n := len(nl.Gates)
	classes := int64(pl.Grid.Rows) * int64(pl.Grid.Cols)
	pairs := int64(n) * int64(n-1) / 2
	useTables := classes <= pairs/4 && classes <= maxClassTableEntries
	return trueStats(ctx, m, nl, pl, useTables)
}

// trueStats is TrueStatsCtx with the class-table decision explicit, so the
// equivalence of the two inner loops is directly testable.
func trueStats(ctx context.Context, m *Model, nl *netlist.Netlist, pl *placement.Placement, useTables bool) (Result, error) {
	const op = "core.TrueStats"
	defer telemetry.StartSpan(ctx, "core.truth")()
	n := len(nl.Gates)
	if n == 0 {
		return Result{}, lkerr.New(lkerr.InvalidInput, op, "empty netlist")
	}
	if len(pl.Site) != n {
		return Result{}, lkerr.New(lkerr.InvalidInput, op,
			"placement covers %d gates, netlist has %d", len(pl.Site), n)
	}
	if err := pl.Validate(); err != nil {
		return Result{}, lkerr.Wrap(lkerr.InvalidInput, op, err)
	}

	// Index the gate types and pre-build the pairwise covariance splines.
	types := nl.SortedTypes()
	tIdx := make(map[string]int, len(types))
	for i, t := range types {
		tIdx[t] = i
	}
	pairSpl := make([][]*quad.Spline, len(types))
	for i := range pairSpl {
		pairSpl[i] = make([]*quad.Spline, len(types))
	}
	for i, a := range types {
		if err := lkerr.FromContext(ctx, op); err != nil {
			return Result{}, err
		}
		for j := i; j < len(types); j++ {
			b := types[j]
			// Warm the model cache, then grab the spline directly.
			if _, err := m.PairCovAtCorr(a, b, 0.5); err != nil {
				return Result{}, err
			}
			key := [2]string{a, b}
			if b < a {
				key = [2]string{b, a}
			}
			sp := m.pairCache[key]
			pairSpl[i][j] = sp
			pairSpl[j][i] = sp
		}
	}

	// Per-gate effective stats and positions.
	mean := 0.0
	variance := 0.0
	gt := make([]int, n)
	xs := make([]float64, n)
	ys := make([]float64, n)
	rs := make([]int, n)
	cs := make([]int, n)
	for g, gate := range nl.Gates {
		mu, sigma, err := m.CellStats(gate.Type)
		if err != nil {
			return Result{}, err
		}
		mean += mu
		variance += sigma * sigma
		gt[g] = tIdx[gate.Type]
		xs[g], ys[g] = pl.Pos(g)
		rs[g], cs[g] = pl.RowCol(g)
	}

	// Distance-class kernel tables: one row-sum term per (type pair, lag
	// class), replacing the per-pair Hypot/TotalCorr/spline-eval chain with
	// an indexed load.
	var classTabs [][][]float64
	if useTables {
		nt := int64(len(types)) * int64(len(types)+1) / 2
		if int64(pl.Grid.Rows)*int64(pl.Grid.Cols)*nt > maxClassTableEntries {
			useTables = false
		}
	}
	if useTables {
		endPre := telemetry.StartSpan(ctx, "truth.class_precompute")
		var err error
		classTabs, err = buildClassTables(m, pl.Grid, pairSpl)
		endPre()
		if err != nil {
			return Result{}, err
		}
	}

	// Pairwise covariances (Eq. 15's off-diagonal part). The upper
	// triangle is sharded by row: each row a owns slot rowVar[a] and sums
	// its b > a pairs left to right exactly as the serial loop did, and
	// the rows are merged in index order below, so the result is bitwise
	// identical at any worker count. Rows are visited grouped by gate
	// type (stable within a type), so one row type's class tables stay in
	// cache across consecutive rows; the visiting order never reaches the
	// sum. The splines, class tables, and per-gate tables are read-only
	// here (the model caches were warmed above).
	order := rowsByType(gt, len(types))
	cols := pl.Grid.Cols
	rep := telemetry.StartProgress(ctx, "core.truth", int64(n))
	tick := parallel.NewTicker(rep)
	rowVar := make([]float64, n)
	err := parallel.ForEach(ctx, op, m.Workers, n, func(_, k int) error {
		fault.Hit(fault.SiteTruthRow)
		a := order[k]
		sum := 0.0
		if classTabs != nil {
			ra, ca := rs[a], cs[a]
			row := classTabs[gt[a]]
			for b := a + 1; b < n; b++ {
				// Branch-free |Δrow| and |Δcol|: on randomly placed gates
				// the sign of each lag is a coin flip per pair. The table
				// entry is already 2·cov, or 0 for a skipped pair.
				dr := ra - rs[b]
				neg := dr >> 63
				dr = (dr ^ neg) - neg
				dc := ca - cs[b]
				neg = dc >> 63
				dc = (dc ^ neg) - neg
				sum += row[gt[b]][dr*cols+dc]
			}
		} else {
			xa, ya := xs[a], ys[a]
			row := pairSpl[gt[a]]
			for b := a + 1; b < n; b++ {
				d := math.Hypot(xa-xs[b], ya-ys[b])
				rho := m.Proc.TotalCorr(d)
				if rho <= 0 {
					continue
				}
				if rho > 1 {
					rho = 1
				}
				cov := row[gt[b]].Eval(rho)
				if cov > 0 {
					sum += 2 * cov
				}
			}
		}
		rowVar[a] = sum
		tick.Tick()
		return nil
	})
	if err != nil {
		rep.Done(tick.Count())
		return Result{}, err
	}
	for _, v := range rowVar {
		variance += v
	}
	rep.Done(int64(n))
	telemetry.Add("truth_pairs_total", int64(n)*int64(n-1)/2)
	variance = fault.Corrupt(fault.SiteTruthRow, variance)
	return Result{
		Mean:   mean,
		Std:    math.Sqrt(variance),
		Method: "true-n2",
	}.checkFinite(op)
}

// buildClassTables precomputes, for every (|Δrow|, |Δcol|) lag class of the
// grid and every type pair, the pairwise leakage covariance the inner loop
// would otherwise derive per pair: ρ = TotalCorr(LagDist), clamped to at
// most 1, then the pair spline at ρ. An entry holds the pair's whole
// contribution to a row sum, 2·cov, and zero where ρ ≤ 0 or cov ≤ 0 (the
// terms the per-pair loop skips), so the inner loop is a plain add: 2·cov
// is exact and adding +0 leaves the (never −0) row sum unchanged, which
// keeps the sum bitwise equal to the per-pair loop's. Every pair spline is
// tabulated on the same ρ knots, so each class locates its spline segment
// once and evaluates all p(p+1)/2 pair splines on it; each unordered type
// pair shares one table. Splines whose knots differ from the first one's
// are an internal error, since a shared segment would then evaluate them
// at the wrong place.
func buildClassTables(m *Model, grid placement.Grid, pairSpl [][]*quad.Spline) ([][][]float64, error) {
	nt := len(pairSpl)
	nc := grid.Rows * grid.Cols
	base := pairSpl[0][0]
	var spl []*quad.Spline
	var tabs [][]float64
	byPair := make([][][]float64, nt)
	for i := range byPair {
		byPair[i] = make([][]float64, nt)
	}
	for i := 0; i < nt; i++ {
		for j := i; j < nt; j++ {
			if !base.SameKnots(pairSpl[i][j]) {
				return nil, lkerr.New(lkerr.Numerical, "core.TrueStats",
					"pair splines %d/%d do not share the ρ knots of pair 0/0", i, j)
			}
			tab := make([]float64, nc)
			spl = append(spl, pairSpl[i][j])
			tabs = append(tabs, tab)
			byPair[i][j] = tab
			byPair[j][i] = tab
		}
	}
	for dr := 0; dr < grid.Rows; dr++ {
		for dc := 0; dc < grid.Cols; dc++ {
			rho := m.Proc.TotalCorr(grid.LagDist(dr, dc))
			if rho <= 0 {
				continue
			}
			if rho > 1 {
				rho = 1
			}
			k := dr*grid.Cols + dc
			seg := base.Locate(rho)
			for p, sp := range spl {
				if cov := sp.EvalSegment(seg); cov > 0 {
					tabs[p][k] = 2 * cov
				}
			}
		}
	}
	return byPair, nil
}

// rowsByType returns the row indices 0..n−1 grouped by gate type in type
// order, ascending within each type (a counting sort of gt).
func rowsByType(gt []int, ntypes int) []int {
	start := make([]int, ntypes+1)
	for _, t := range gt {
		start[t+1]++
	}
	for t := 1; t <= ntypes; t++ {
		start[t] += start[t-1]
	}
	order := make([]int, len(gt))
	for a, t := range gt {
		order[start[t]] = a
		start[t]++
	}
	return order
}

// ExtractSpec derives the high-level design characteristics (Fig. 1) from a
// placed netlist — the late-mode extraction step: cell-usage histogram,
// gate count, and layout dimensions.
func ExtractSpec(nl *netlist.Netlist, pl *placement.Placement, signalProb float64) (DesignSpec, error) {
	hist, err := nl.Histogram()
	if err != nil {
		return DesignSpec{}, err
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
