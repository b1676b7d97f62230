package leakest

import (
	"context"
	"fmt"
	"io"
	"time"
)

// Report writes a markdown leakage sign-off report for a design: the
// high-level characteristics, estimates from every applicable method, the
// matched leakage distribution with quantiles, the variance breakdown, and
// a yield-versus-budget table. It is the human-facing summary of the
// paper's Fig. 1 flow and is exposed in cmd/leakest via -report. The
// design is validated before anything is written (typed InvalidInput).
func (e *Estimator) Report(w io.Writer, title string, design Design) error {
	if err := design.Validate(); err != nil {
		return err
	}
	if title == "" {
		title = "Full-chip leakage sign-off"
	}
	pr := func(format string, args ...any) {} // replaced below to thread errors
	var firstErr error
	pr = func(format string, args ...any) {
		if firstErr != nil {
			return
		}
		_, firstErr = fmt.Fprintf(w, format, args...)
	}

	pr("# %s\n\n", title)
	pr("Method: Random-Gate statistical leakage estimation " +
		"(Heloue/Azizi/Najm, DAC 2007).\n\n")
	pr("## Design characteristics\n\n")
	pr("| characteristic | value |\n|---|---|\n")
	pr("| cells | %d |\n", design.N)
	pr("| layout | %.4g × %.4g µm (%.3g mm²) |\n",
		design.W, design.H, design.W*design.H/1e6)
	pr("| cell types | %d |\n", design.Hist.Len())
	pr("| signal probability | %.3f |\n", design.SignalProb)
	pr("| process | L = %.4g µm, σ_L = %.4g µm (D2D %.4g / WID %.4g), %s |\n",
		e.proc.LNominal, e.proc.TotalSigma(), e.proc.SigmaD2D, e.proc.SigmaWID,
		e.proc.WIDCorr.Name())
	if e.ApplyVtMean {
		pr("| random-Vt mean factor | ×%.3f (σ_Vt = %.3g V) |\n",
			e.VtMeanFactor(), e.proc.SigmaVt)
	}
	pr("\n## Estimates\n\n")
	pr("| method | mean (A) | σ (A) | σ/mean | note |\n|---|---|---|---|---|\n")
	var primary Result
	havePrimary := false
	// Every method runs as asked: a budget would route them all down the
	// degradation ladder.
	each := *e
	each.Budget = EstimateBudget{}
	for _, method := range []Method{Linear, Polar, Naive} {
		res, err := each.EstimateContext(context.Background(), design, method)
		if err != nil {
			pr("| %s | — | — | — | %v |\n", method, err)
			continue
		}
		pr("| %s | %.4g | %.4g | %.2f%% | %s |\n",
			method, res.Mean, res.Std, 100*res.Std/res.Mean, res.Note)
		if !havePrimary {
			primary, havePrimary = res, true
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if !havePrimary {
		return fmt.Errorf("leakest: no estimation method succeeded for the report")
	}

	dist, err := DistributionOf(primary)
	if err != nil {
		return err
	}
	pr("\n## Leakage distribution (lognormal, matched to the %s estimate)\n\n", primary.Method)
	pr("| quantile | leakage (A) |\n|---|---|\n")
	for _, q := range []float64{0.05, 0.25, 0.50, 0.75, 0.95, 0.99, 0.999} {
		pr("| p%g | %.4g |\n", q*100, dist.Quantile(q))
	}

	bd, err := e.Breakdown(design)
	if err != nil {
		return err
	}
	i, fl, wid := bd.Fractions()
	pr("\n## Variance breakdown\n\n")
	pr("| source | share of σ² |\n|---|---|\n")
	pr("| independent (gate choice, local) | %.1f%% |\n", 100*i)
	pr("| die-to-die (shared) | %.1f%% |\n", 100*fl)
	pr("| within-die correlation | %.1f%% |\n", 100*wid)

	pr("\n## Yield vs leakage budget\n\n")
	pr("| budget | yield |\n|---|---|\n")
	for _, mult := range []float64{0.9, 1.0, 1.1, 1.25, 1.5, 2.0} {
		pr("| %.2f × mean | %.2f%% |\n", mult, 100*dist.CDF(primary.Mean*mult))
	}
	b95, err := dist.YieldBudget(0.95)
	if err != nil {
		return err
	}
	pr("\nBudget for 95%% yield: **%.4g A** (%.2f× the mean).\n", b95, b95/primary.Mean)
	pr("\n_Generated %s._\n", time.Now().UTC().Format(time.RFC3339))
	return firstErr
}
