package core

import (
	"context"
	"fmt"
	"math"

	"leakest/internal/fault"
	"leakest/internal/parallel"
	"leakest/internal/quad"
	"leakest/internal/telemetry"
)

// lagKernel sums the RG covariance over the lag lattice of the model's RG
// array — the Eq. 17 regrouping shared by the linear, tiled and per-tile
// sums (DESIGN.md §16). Lag (i, j), at d = hypot(i·dw, j·dh), carries the
// integer pair population wc[i]·wr[j] of tileLagCounts.
type lagKernel struct {
	m         *Model
	dw, dh, r float64 // r: the WID correlation range
}

// newLagKernel builds the kernel for the model's rows×cols RG array.
func (m *Model) newLagKernel(rows, cols int) lagKernel {
	r := 0.0 // without WID variation TotalCorr never reads ρ_WID
	if m.Proc.SigmaWID > 0 && m.Proc.WIDCorr != nil {
		r = m.Proc.WIDCorr.Range()
	}
	return lagKernel{m: m, dw: m.Spec.W / float64(cols), dh: m.Spec.H / float64(rows), r: r}
}

// column adds the lags (i, j) of column i, j ascending and (0, 0) skipped,
// to sum with weights wc·wr[j], and returns the new sum and how many lags
// lie within r.
//
// Beyond r the spatial.CorrFunc contract gives ρ_WID = 0, so every such
// lag has the covariance F(ρ_floor) of the column's first lag past r; the
// kernel adds that value for the rest of the column, in the same order,
// instead of evaluating F(ρ(d)) per lag, so the sum is bitwise the per-lag
// one. The rest of the column is past r because, for a fixed x = i·dw, the
// computed Hypot(x, y) never decreases as y = float64(j)·dh grows: while
// y ≤ x each correctly rounded step of x·√(1+(y/x)²) is monotone in y;
// past that, one step of dh raises the exact distance by at least dh/√2,
// a relative rise of at least 1/(2(j+1)), far above Hypot's few-ulp
// rounding error for any grid side below ~10¹³ (TestLagDistanceMonotone).
func (k *lagKernel) column(sum float64, i int, wc int64, wr []int64) (float64, int) {
	x := float64(i) * k.dw
	first := 0
	if i == 0 {
		first = 1
	}
	var seg quad.Segment
	for j := first; j < len(wr); j++ {
		d := math.Hypot(x, float64(j)*k.dh)
		cov := k.m.covAtCorrFrom(k.m.Proc.TotalCorr(d), &seg)
		if d > k.r {
			if cov != 0 { // a zero floor adds nothing: skip the tail
				for t := j; t < len(wr); t++ {
					sum += float64(wc*wr[t]) * cov
				}
			}
			return sum, j - first
		}
		sum += float64(wc*wr[j]) * cov
	}
	return sum, len(wr) - first
}

// latticeVariance returns the Eq. 17 variance of the model's rows×cols RG
// array, N·σ²_XI plus the off-diagonal lag sum with the lag populations
// wc (columns) and wr (rows), occupancy-scaled by N(N−1)/(S(S−1)) when
// the array has S ≠ N sites. Each column sums into its own slot and the
// slots merge in index order, so the result is bitwise identical at any
// worker count; ctx is checked, and progress reported, once per column.
// The count of lags within the WID range, the ones evaluated one by one,
// goes on the current span as lags_in_range.
func (m *Model) latticeVariance(ctx context.Context, op, stage string, rows, cols int, wc, wr []int64) (variance float64, note string, err error) {
	kern := m.newLagKernel(rows, cols)
	rep := telemetry.StartProgress(ctx, stage, int64(cols))
	colOff := make([]float64, cols)
	colIn := make([]int, cols)
	tick := parallel.NewTicker(rep)
	err = parallel.ForEach(ctx, op, m.Workers, cols, func(_, i int) error {
		colOff[i], colIn[i] = kern.column(0, i, wc[i], wr)
		tick.Tick()
		return nil
	})
	if err != nil {
		rep.Done(tick.Count())
		return 0, "", err
	}
	off, in := 0.0, 0
	for i, v := range colOff {
		off += v
		in += colIn[i]
	}
	rep.Done(int64(cols))
	telemetry.SpanAttrInt(ctx, "lags_in_range", int64(in))
	off = fault.Corrupt(fault.SiteLinearAccum, off)
	n := float64(m.Spec.N)
	if s := rows * cols; s != m.Spec.N {
		off *= n * (n - 1) / (float64(s) * float64(s-1))
		note = fmt.Sprintf("occupancy-scaled: %d gates on %d×%d=%d sites", m.Spec.N, rows, cols, s)
	}
	return n*m.variance + off, note, nil
}
