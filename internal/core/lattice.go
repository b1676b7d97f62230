package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"leakest/internal/fault"
	"leakest/internal/parallel"
	"leakest/internal/telemetry"
)

// lagKernel sums the RG covariance over the lag lattice of the model's RG
// array — the Eq. 17 regrouping shared by the linear and tiled sums
// (DESIGN.md §16). Lag (i, j), at d = √(x² + y²) for x = i·dw, y = j·dh,
// carries the integer pair population lagCount(cols, i)·lagCount(rows, j).
// A lag within the WID range costs one Sqrt and one evaluation of the
// model's widCov (for the exponential family a divide, one Exp, an index
// and a Horner step); the lags past it share the floor's covariance, added
// as one product per column.
type lagKernel struct {
	cov        *widCov
	rows, cols int
	dw, dh     float64
}

// newLagKernel builds the kernel for the model's rows×cols RG array.
func (m *Model) newLagKernel(rows, cols int) lagKernel {
	return lagKernel{cov: &m.cov, rows: rows, cols: cols, dw: m.Spec.W / float64(cols), dh: m.Spec.H / float64(rows)}
}

// lagBox is the lag lattice of one rows×cols array: lag (i, j) for
// i < cols, j < rows, with population lagCount(cols, i)·lagCount(rows, j).
// A lag pass that sums the box leaves column i's sum in colSums[i], cols
// long.
type lagBox struct {
	rows, cols int
	colSums    []float64
}

// lagCount is the ordered site-pair population of lag i along a dimension
// of dim sites: dim pairs at lag 0, 2·(dim − i) at lag i > 0.
func lagCount(dim, i int) int64 {
	if i == 0 {
		return int64(dim)
	}
	return 2 * int64(dim-i)
}

// lagTailCount is Σ_{t≥end} lagCount(dim, t), the population of the lags
// from end on, for 0 ≤ end ≤ dim: dim² from 0, (dim−end)(dim−end+1)
// from end > 0.
func lagTailCount(dim, end int) int64 {
	if end == 0 {
		return int64(dim) * int64(dim)
	}
	return int64(dim-end) * int64(dim-end+1)
}

// column adds the lags (i, j) of column i, j ascending and (0, 0) skipped,
// to a sum with their populations as weights, and returns that sum and how
// many lags lie within the WID range r. Each lag's covariance is evaluated
// once: with boxes, the walk keeps the in-range ones in covs, as long as
// the tallest box, then sums column i of every box that holds it, with the
// box's own populations and the same range tail, into the box's
// colSums[i]. A box's sum is bitwise the one a walk of its own lattice
// would give.
//
// Beyond r the spatial.CorrFunc contract gives ρ_WID = 0, so every such
// lag has the floor's covariance; the walk stops at the column's first lag
// past r and adds the rest of the column as one product, the floor times
// the integer population of the lags left. The rest of the column is past
// r because the computed √(x² + y²) never decreases as y = float64(j)·dh
// grows: rounded square, add and square root are each monotone
// (TestLagDistanceMonotone).
func (k *lagKernel) column(i int, boxes []lagBox, covs []float64) (float64, int) {
	c := k.cov
	x := float64(i) * k.dw
	x2 := x * x
	wc := lagCount(k.cols, i)
	first := 0
	if i == 0 {
		first = 1
	}
	// Lags [first, end) lie within r.
	end := k.rows
	sum := 0.0
	for j := first; j < k.rows; j++ {
		y := float64(j) * k.dh
		d := math.Sqrt(x2 + y*y)
		if d > c.r {
			end = j
			break
		}
		cov := c.at(c.feature(d))
		sum += float64(wc*lagCount(k.rows, j)) * cov
		if j < len(covs) {
			covs[j] = cov
		}
	}
	sum += float64(wc*lagTailCount(k.rows, end)) * c.floor
	for _, bx := range boxes {
		if i >= len(bx.colSums) { // beyond the box, or a box the walk does not sum
			continue
		}
		w, s := lagCount(bx.cols, i), 0.0
		for j := first; j < min(end, bx.rows); j++ {
			s += float64(w*lagCount(bx.rows, j)) * covs[j]
		}
		if end < bx.rows {
			s += float64(w*lagTailCount(bx.rows, end)) * c.floor
		}
		bx.colSums[i] = s
	}
	return sum, end - first
}

// latticeVariance returns the Eq. 17 variance of the model's rows×cols RG
// array, N·σ²_XI plus the off-diagonal lag sum, occupancy-scaled by
// N(N−1)/(S(S−1)) when the array has S ≠ N sites. The same pass sums each of tiles, the lag
// boxes of the tile shapes, and returns their unscaled off-diagonal sums
// in tileOff; a box of the global lattice's own shape (one tile) takes the
// global sum. Each column sums into its own slots and the slots merge in
// index order, so every sum is bitwise identical at any worker count; ctx
// is checked, and progress reported, once per column. The count of lags
// within the WID range, the ones evaluated one by one, goes on the current
// span as lags_in_range.
func (m *Model) latticeVariance(ctx context.Context, op, stage string, rows, cols int, tiles []lagBox) (variance float64, tileOff []float64, note string, err error) {
	kern := m.newLagKernel(rows, cols)
	boxes := slices.Clone(tiles)
	tall := 0 // the tallest summed box's rows
	for b, bx := range boxes {
		if bx.cols != cols || bx.rows != rows { // else the global sum serves it
			boxes[b].colSums = make([]float64, bx.cols)
			tall = max(tall, bx.rows)
		}
	}
	covs := make([][]float64, parallel.Resolve(m.Workers, cols)) // per worker
	if tall > 0 {
		for w := range covs {
			covs[w] = make([]float64, tall)
		}
	}
	rep := telemetry.StartProgress(ctx, stage, int64(cols))
	colOff := make([]float64, cols)
	var in atomic.Int64 // an integer sum: the same in any order
	tick := parallel.NewTicker(rep)
	err = parallel.ForEach(ctx, op, m.Workers, cols, func(w, i int) error {
		var n int
		colOff[i], n = kern.column(i, boxes, covs[w])
		in.Add(int64(n))
		tick.Tick()
		return nil
	})
	if err != nil {
		rep.Done(tick.Count())
		return 0, nil, "", err
	}
	off := 0.0
	for _, v := range colOff {
		off += v
	}
	rep.Done(int64(cols))
	telemetry.SpanAttrInt(ctx, "lags_in_range", in.Load())
	tileOff = make([]float64, len(boxes))
	for b, bx := range boxes {
		if bx.colSums == nil {
			tileOff[b] = off
		}
		for _, v := range bx.colSums {
			tileOff[b] += v
		}
	}
	off = fault.Corrupt(fault.SiteLinearAccum, off)
	n := float64(m.Spec.N)
	if s := rows * cols; s != m.Spec.N {
		off *= n * (n - 1) / (float64(s) * float64(s-1))
		note = fmt.Sprintf("occupancy-scaled: %d gates on %d×%d=%d sites", m.Spec.N, rows, cols, s)
	}
	return n*m.variance + off, tileOff, note, nil
}
