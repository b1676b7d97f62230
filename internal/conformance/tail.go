package conformance

import (
	"context"
	"fmt"
	"math"

	"leakest/internal/charlib"
	"leakest/internal/chipmc"
	"leakest/internal/core"
	"leakest/internal/randvar"
	"leakest/internal/spatial"
	"leakest/internal/stats"
)

// This file gates the distribution-tail estimators (chipmc.TailConfig):
//
//   - tail-analytic: a single INV_X1 with the whole variation budget in the
//     die-to-die term and its input pinned high. Chip leakage is then
//     exactly I = f(µ + σ·Z) for the one characterized state curve f and a
//     standard normal Z, so every tail quantity has a closed form:
//     quantiles are f(µ + σ·Φ⁻¹(·)) and a spec placed at f(µ + σ·Φ⁻¹(p))
//     has exceedance probability exactly p. Both the plain-MC exceedance
//     and the importance-sampled deep-tail estimate are held to these
//     closed forms within z·SE.
//
//   - tail-brute: a 6×6 D2D-heavy placed circuit where no closed form
//     exists. A large plain-MC referee (10⁶ trials full, trimmed in Short
//     mode) measures P[I > spec] at a spec placed near P ≈ 10⁻⁴ by the
//     truth-based lognormal fit; the importance sampler must reproduce it
//     within z·√(SE_IS² + SE_ref²) while spending at most 1/20 of the
//     referee's trials — and must do so at an equal-or-better standard
//     error, the whole point of the tilted estimator.
//
// The tail-is mutation (see TailSelfCheckFactor) rides through
// chipmc.TailConfig.WeightScale: a uniform 2× weight mis-scaling flows
// through the weighted estimator — probability, SE, ESS bookkeeping —
// exactly as a dropped factor in the likelihood ratio would, and must trip
// the z·SE gates above.

// Analytic single-gate fixture sizes. The design has one gate, so trials
// cost one normal draw and one spline evaluation; the counts are identical
// in Short and full modes.
const (
	// tailPlainTrials sizes the plain-MC run the quantile and shallow
	// exceedance checks read from.
	tailPlainTrials = 20000
	// tailPlainP is the shallow exceedance probability — large enough that
	// plain MC resolves it crisply (≈2000 expected hits).
	tailPlainP = 0.1
	// tailDeepPrimary is the primary trial count of the IS run (it feeds
	// the lognormal moment fit that auto-selects the tilt).
	tailDeepPrimary = 4000
	// tailDeepISTrials is the importance-sampled trial count.
	tailDeepISTrials = 6000
	// tailDeepP is the deep exceedance probability the IS gate checks at —
	// a tail plain MC could not resolve at these trial counts.
	tailDeepP = 1e-3
)

// tailWeightScale returns the deliberate IS weight mis-scaling when the
// configured mutation targets the tail estimator, 0 (meaning unscaled)
// otherwise. Unlike the moment mutations, which bias a finished result in
// the harness, this one rides through chipmc.TailConfig.WeightScale so the
// bias flows through the whole weighted estimator — probability, standard
// error, and ESS bookkeeping — exactly as a real weighting bug would.
func (h *harness) tailWeightScale() float64 {
	if mu := h.cfg.Mutation; mu != nil && mu.Target == "tail-is" {
		return mu.Factor
	}
	return 0
}

// runTailAnalytic cross-validates the tail estimators against closed forms
// on the one design where they exist exactly.
func (h *harness) runTailAnalytic(ctx context.Context) error {
	const fixture = "tail-analytic"
	oneInv, err := stats.NewHistogram(map[string]float64{"INV_X1": 1})
	if err != nil {
		return err
	}
	proc := allD2D()
	nl, pl, err := placedCircuit(h.lib, h.cfg.Seed, fixture, "conf-"+fixture, 1, 16, oneInv, 1)
	if err != nil {
		return err
	}
	cc, err := h.lib.Cell("INV_X1")
	if err != nil {
		return err
	}
	// Signal probability 1 pins the inverter input high: exactly one state
	// is reachable, so the state mixture collapses and leakage is a
	// deterministic monotone function of channel length.
	var st *charlib.StateChar
	for i := range cc.States {
		if cc.StateProb(cc.States[i].State, 1) == 1 {
			st = &cc.States[i]
			break
		}
	}
	if st == nil {
		return fmt.Errorf("conformance: INV_X1 has no state with probability 1 at signal probability 1")
	}
	mu, sigma := proc.LNominal, proc.TotalSigma()
	// Leakage falls as channel length grows on a physical characterization;
	// probe the direction like the tilt selector does so the closed forms
	// stay correct for any monotone curve.
	dec := st.Leakage(mu*1.01) < st.Leakage(mu*0.99)
	// quant is the exact leakage quantile: P[I ≤ quant(q)] = q. For a
	// decreasing f, Q_I(q) = f(µ + σ·Φ⁻¹(1−q)); the same formula at 1−p is
	// the spec whose exceedance probability is exactly p.
	quant := func(q float64) float64 {
		z := randvar.NormalQuantile(1 - q)
		if !dec {
			z = randvar.NormalQuantile(q)
		}
		return st.Leakage(mu + sigma*z)
	}

	qs := []float64{0.5, 0.9, 0.99}
	mcA, err := chipmc.RunContext(ctx, chipmc.Config{
		Lib: h.lib, Proc: proc, SignalProb: 1,
		Samples: tailPlainTrials, Seed: h.cfg.Seed, Workers: h.cfg.Workers, MaxGates: 1,
		Tail: &chipmc.TailConfig{Spec: quant(1 - tailPlainP), Quantiles: qs},
	}, nl, pl)
	if err != nil {
		return err
	}
	ta := mcA.Tail
	h.check(fixture, "tail/plain-exceedance-vs-closed-form", KindStatistical,
		ta.MCP, tailPlainP,
		Tolerance{Abs: mcZ * math.Sqrt(tailPlainP*(1-tailPlainP)/float64(tailPlainTrials))},
		fmt.Sprintf("spec at f(µ+σ·Φ⁻¹(p)) has exceedance exactly p; %d trials, tolerance %g·SE_binomial",
			tailPlainTrials, mcZ))
	h.checkBehavior(fixture, "tail/quantile-coverage", len(ta.Quantiles) == len(qs),
		fmt.Sprintf("requested %d quantiles, got %d", len(qs), len(ta.Quantiles)))
	for i, q := range qs {
		if i >= len(ta.Quantiles) {
			break
		}
		want := quant(q)
		// The sampled order statistic sits within z·SE_q of q in probability;
		// push that band through the exact quantile function to get the
		// allowed deviation in amperes (no density estimate needed).
		dq := mcZ * math.Sqrt(q*(1-q)/float64(tailPlainTrials))
		band := math.Max(math.Abs(quant(q+dq)-want), math.Abs(quant(q-dq)-want))
		h.check(fixture, fmt.Sprintf("tail/quantile-%g-vs-closed-form", q), KindStatistical,
			ta.Quantiles[i].Value, want, Tolerance{Abs: band},
			"order statistic vs f(µ+σ·Φ⁻¹); band = closed form evaluated at q±z·SE_q")
	}

	mcB, err := chipmc.RunContext(ctx, chipmc.Config{
		Lib: h.lib, Proc: proc, SignalProb: 1,
		Samples: tailDeepPrimary, Seed: h.cfg.Seed, Workers: h.cfg.Workers, MaxGates: 1,
		Tail: &chipmc.TailConfig{
			Spec:        quant(1 - tailDeepP),
			ISTrials:    tailDeepISTrials,
			WeightScale: h.tailWeightScale(),
		},
	}, nl, pl)
	if err != nil {
		return err
	}
	tb := mcB.Tail
	h.checkBehavior(fixture, "tail/is-healthy",
		tb.Source == chipmc.TailSourceIS && !tb.Degraded,
		fmt.Sprintf("the D2D-only design is the importance sampler's best case; source=%q degraded=%v reason=%q",
			tb.Source, tb.Degraded, tb.DegradedReason))
	h.check(fixture, "tail/is-exceedance-vs-closed-form", KindStatistical,
		tb.P, tailDeepP, Tolerance{Abs: mcZ * tb.SE},
		fmt.Sprintf("tilted estimator vs the exact value at P=%g; %d IS trials, θ=%.2f, hit ESS %.0f",
			tailDeepP, tailDeepISTrials, tb.Shift, tb.HitESS))
	return nil
}

// runTailBrute cross-validates the importance sampler against a brute-force
// plain-MC referee on a correlated placed circuit, and holds it to the
// trial-budget claim: matching accuracy at ≤ 1/20 of the referee's trials.
func (h *harness) runTailBrute(ctx context.Context) error {
	const fixture = "tail-brute"
	mixed, err := stats.NewHistogram(map[string]float64{
		"INV_X1": 3, "NAND2_X1": 2, "NOR2_X1": 2, "XOR2_X1": 1,
	})
	if err != nil {
		return err
	}
	// D2D-heavy split (90 % of the variance in the shared deviate) with the
	// tight correlation kernel: the regime the one-dimensional tilt is built
	// for, while the remaining within-die field keeps the fixture honest —
	// chip leakage is not a deterministic function of the tilted scalar.
	base := spatial.Default90nm()
	tot := base.TotalSigma()
	proc := &spatial.Process{
		LNominal: base.LNominal,
		SigmaD2D: tot * math.Sqrt(0.9),
		SigmaWID: tot * math.Sqrt(0.1),
		SigmaVt:  base.SigmaVt,
		WIDCorr:  spatial.TruncatedExpCorr{Lambda: 6, R: 24},
	}
	const n = 36 // 6×6 sites: small enough that a 10⁶-trial dense referee stays affordable
	bruteN, pStar := 1_000_000, 1e-4
	primaryN, isN := 10_000, 40_000
	if h.cfg.Short {
		bruteN, pStar = 200_000, 1e-3
		primaryN, isN = 2_000, 8_000
	}

	nl, pl, err := placedCircuit(h.lib, h.cfg.Seed, fixture, "conf-"+fixture, n, 16, mixed, 1)
	if err != nil {
		return err
	}
	// Place the spec from the analytic truth's lognormal fit, independent of
	// every MC sample: the fit only needs to land the spec near P ≈ p*, and
	// both estimators then measure the same exact quantity at it.
	spec, err := core.ExtractSpec(nl, pl, 0.5)
	if err != nil {
		return err
	}
	em, err := core.NewModelCtx(ctx, h.lib, proc, spec, core.Analytic)
	if err != nil {
		return err
	}
	em.Workers = h.cfg.Workers
	truth, err := core.TrueStatsCtx(ctx, em, nl, pl)
	if err != nil {
		return err
	}
	dist, err := core.DistributionOf(truth)
	if err != nil {
		return err
	}
	specA := dist.Quantile(1 - pStar)

	brute, err := chipmc.RunContext(ctx, chipmc.Config{
		Lib: h.lib, Proc: proc, SignalProb: 0.5,
		Samples: bruteN, Seed: h.cfg.Seed, Workers: h.cfg.Workers, MaxGates: n,
		Tail: &chipmc.TailConfig{Spec: specA},
	}, nl, pl)
	if err != nil {
		return err
	}
	is, err := chipmc.RunContext(ctx, chipmc.Config{
		Lib: h.lib, Proc: proc, SignalProb: 0.5,
		Samples: primaryN, Seed: h.cfg.Seed, Workers: h.cfg.Workers, MaxGates: n,
		Tail: &chipmc.TailConfig{
			Spec:        specA,
			ISTrials:    isN,
			WeightScale: h.tailWeightScale(),
		},
	}, nl, pl)
	if err != nil {
		return err
	}
	bt, it := brute.Tail, is.Tail

	h.checkBehavior(fixture, "tail/referee-resolves", bt.MCHits >= 20,
		fmt.Sprintf("the %d-trial referee needs enough hits to referee at all; got %d at spec %.3g A",
			bruteN, bt.MCHits, specA))
	h.checkBehavior(fixture, "tail/is-healthy",
		it.Source == chipmc.TailSourceIS && !it.Degraded,
		fmt.Sprintf("importance sampling must stay healthy on the D2D-heavy fixture; source=%q degraded=%v reason=%q",
			it.Source, it.Degraded, it.DegradedReason))
	h.check(fixture, "tail/is-vs-brute-mc", KindStatistical, it.P, bt.MCP,
		Tolerance{Abs: mcZ * math.Hypot(it.SE, bt.MCSE)},
		fmt.Sprintf("%d-trial tilted IS vs a %d-trial plain referee near P≈%g (θ=%.2f, hit ESS %.0f)",
			isN, bruteN, pStar, it.Shift, it.HitESS))
	h.checkBehavior(fixture, "tail/is-trial-budget", primaryN+isN <= bruteN/20,
		fmt.Sprintf("IS spends %d total trials against the referee's %d — must stay within 1/20",
			primaryN+isN, bruteN))
	h.checkBehavior(fixture, "tail/is-se-at-one-twentieth-trials", it.SE <= bt.MCSE,
		fmt.Sprintf("equal-or-better standard error on 1/20 the trials: SE_IS=%.3g vs SE_referee=%.3g",
			it.SE, bt.MCSE))
	return nil
}
