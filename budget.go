package leakest

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"leakest/internal/core"
	"leakest/internal/lkerr"
	"leakest/internal/telemetry"
)

// EstimateBudget bounds the work one estimation may spend. The paper's
// O(n) and O(1) estimators (Eqs. 17, 20, 25) are exact or near-exact
// cheaper substitutes for the O(n²) pairwise sum (Eq. 15), so a budget that
// rules out an expensive method degrades to the next-cheaper one instead of
// failing; the Result records the chosen method and the degradation reason.
//
// The budget is the Estimator's Budget field. The degradation ladder is
// O(n²) true leakage (TrueLeakageContext) → O(n) linear → O(1) integral
// (polar when applicable, 2-D rectangular otherwise); under a non-zero
// budget EstimateContext ignores its method and starts at the O(n) rung.
// Monte Carlo does not degrade and ignores the budget. Every fall
// down the ladder is also reported through the telemetry layer: a
// degradations_total{reason=...} counter increment and a warning log, so a
// degraded run is visible on /metrics and in the structured log, not only
// to callers that inspect the Result.
type EstimateBudget struct {
	// MaxGates bounds methods whose cost grows with the gate count — the
	// O(n²) pairwise sum and the O(n) linear method. 0 means no limit.
	MaxGates int
	// MaxPairs bounds the O(n²) pair count n·(n−1)/2. 0 means no limit.
	MaxPairs int64
	// Timeout is a per-rung deadline: each attempted rung gets this much
	// time, and a rung that exceeds it degrades to the next-cheaper one.
	// 0 means no deadline.
	Timeout time.Duration
}

// pairs returns the O(n²) pair count of n gates.
func pairs(n int) int64 { return int64(n) * int64(n-1) / 2 }

// Degradation reason classes, the label values of degradations_total.
const (
	reasonMaxPairs = "max-pairs"
	reasonMaxGates = "max-gates"
	reasonTimeout  = "timeout"
	reasonBudget   = "budget"
	reasonOther    = "other"
)

// allowsTruth reports whether the O(n²) rung fits the static budget; the
// reason names what tripped, kind classifies it for the metrics label.
func (b EstimateBudget) allowsTruth(n int) (ok bool, kind, why string) {
	if b.MaxPairs > 0 && pairs(n) > b.MaxPairs {
		return false, reasonMaxPairs, fmt.Sprintf("o(n²) skipped: %d pairs > MaxPairs=%d", pairs(n), b.MaxPairs)
	}
	if b.MaxGates > 0 && n > b.MaxGates {
		return false, reasonMaxGates, fmt.Sprintf("o(n²) skipped: %d gates > MaxGates=%d", n, b.MaxGates)
	}
	return true, "", ""
}

// allowsLinear reports whether the O(n) rung fits the static budget.
func (b EstimateBudget) allowsLinear(n int) (ok bool, kind, why string) {
	if b.MaxGates > 0 && n > b.MaxGates {
		return false, reasonMaxGates, fmt.Sprintf("o(n) skipped: %d gates > MaxGates=%d", n, b.MaxGates)
	}
	return true, "", ""
}

// rungCtx derives the per-rung context: the caller's ctx, bounded by the
// budget timeout when one is set.
func (b EstimateBudget) rungCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if b.Timeout > 0 {
		return context.WithTimeout(ctx, b.Timeout)
	}
	return ctx, func() {}
}

// degradable reports whether an error should trigger a fall to the next
// rung: per-rung deadlines and budget refusals degrade; caller cancellation
// and real failures do not.
func degradable(ctx context.Context, err error) bool {
	if err == nil {
		return false
	}
	// A dead parent context means the caller gave up — don't keep trying.
	if ctx.Err() != nil {
		return false
	}
	return errors.Is(err, ErrDeadlineExceeded) || errors.Is(err, ErrBudgetExceeded)
}

// noteDegradation records one fall down the ladder in the telemetry layer:
// degradations_total{reason=<kind>}, a structured warning naming the skipped
// rung, and — when ctx carries a trace — a "degraded.<rung>" span attribute
// so the flight recorder shows which rung fell and why. No-op cost when
// telemetry is disabled.
func noteDegradation(ctx context.Context, rung, kind, why string) {
	if telemetry.MetricsOn() {
		telemetry.Inc(telemetry.Label("degradations_total", "reason", kind))
	}
	telemetry.SpanAttrStr(ctx, "degraded."+rung, kind+": "+why)
	telemetry.Warn("estimation degraded", "rung", rung, "reason", kind, "detail", why)
}

// markDegraded flags a result obtained below the requested rung and logs
// the method that finally ran.
func markDegraded(res Result, reasons []string) Result {
	if len(reasons) == 0 {
		return res
	}
	res.Degraded = true
	res.DegradeReason = strings.Join(reasons, "; ")
	telemetry.Warn("degraded result", "method", res.Method, "reason", res.DegradeReason)
	return res
}

// runFunc computes one rung of the ladder on a built model.
type runFunc func(context.Context, *core.Model) (Result, error)

// rung is one step of the degradation ladder. allow applies the static
// budget to the gate count; a nil allow marks the floor, which runs under
// the caller's ctx alone and whose error is final.
type rung struct {
	name  string
	allow func(b EstimateBudget, n int) (ok bool, kind, why string)
	run   runFunc
}

// rungs is the ladder, most expensive rung first: the O(n²) truth when
// given, the exact O(n) linear method — tiled when Tiles > 1, bitwise
// identical to the monolithic one (§16) plus TileStats — and the O(1)
// floor. Truth is monolithic, and so is the linear rung below it.
func (e *Estimator) rungs(truth runFunc) []rung {
	linear := func(ctx context.Context, m *core.Model) (Result, error) {
		if e.Tiles > 1 && truth == nil {
			return m.EstimateTiledCtx(ctx, e.Tiles, nil)
		}
		return m.EstimateLinearCtx(ctx)
	}
	table := []rung{
		{"o(n²)", EstimateBudget.allowsTruth, truth},
		{"o(n)", EstimateBudget.allowsLinear, linear},
		{"o(1)", nil, constantTime},
	}
	if truth == nil {
		return table[1:]
	}
	return table
}

// ladder walks the rungs under e.Budget and serves the first that succeeds.
// A rung the static budget rules out, or one that blows its per-rung
// Timeout or is refused with BudgetExceeded, is recorded — degradations_total,
// a warning, a "degraded.<rung>" span attribute — and the next rung runs.
// The Result is flagged Degraded when a cheaper rung than the first served.
func (e *Estimator) ladder(ctx context.Context, m *core.Model, rungs []rung) (Result, error) {
	var reasons []string
	for _, r := range rungs {
		rctx, cancel := ctx, func() {}
		if r.allow != nil {
			if ok, kind, why := r.allow(e.Budget, m.Spec.N); !ok {
				noteDegradation(ctx, r.name, kind, why)
				reasons = append(reasons, why)
				continue
			}
			rctx, cancel = e.Budget.rungCtx(ctx)
		}
		res, err := r.run(rctx, m)
		cancel()
		if err == nil {
			return markDegraded(res, reasons), nil
		}
		if r.allow == nil || !degradable(ctx, err) {
			return Result{}, err
		}
		noteDegradation(ctx, r.name, reasonKindOf(err), err.Error())
		reasons = append(reasons, r.name+" "+reasonOf(err))
	}
	return Result{}, lkerr.New(lkerr.Degraded, "leakest.ladder",
		"no rung served: %s", strings.Join(reasons, "; "))
}

// resultAttrs stamps the outcome of a run onto the current span: the
// method that finally ran and, when the ladder fell, the degradation flag
// and reason. Nil-check no-op without a trace.
func resultAttrs(ctx context.Context, res Result) {
	telemetry.SpanAttrStr(ctx, "method", res.Method)
	if res.Degraded {
		telemetry.SpanAttrBool(ctx, "degraded", true)
		telemetry.SpanAttrStr(ctx, "degrade_reason", res.DegradeReason)
	}
}

// constantTime runs the O(1) rung: the polar integral when the correlation
// range permits it, the 2-D rectangular integral otherwise.
func constantTime(ctx context.Context, m *core.Model) (Result, error) {
	if res, err := m.EstimatePolarCtx(ctx); err == nil {
		return res, nil
	}
	return m.EstimateIntegral2DCtx(ctx)
}

// reasonOf renders a degradation cause for DegradeReason.
func reasonOf(err error) string {
	switch {
	case errors.Is(err, ErrDeadlineExceeded):
		return "timed out"
	case errors.Is(err, ErrBudgetExceeded):
		return "over budget: " + err.Error()
	default:
		return err.Error()
	}
}

// reasonKindOf classifies a degradation cause for the metrics label.
func reasonKindOf(err error) string {
	switch {
	case errors.Is(err, ErrDeadlineExceeded):
		return reasonTimeout
	case errors.Is(err, ErrBudgetExceeded):
		return reasonBudget
	default:
		return reasonOther
	}
}
