package conformance

import (
	"context"
	"fmt"
	"math"
	"slices"

	"leakest/internal/charlib"
	"leakest/internal/chipmc"
	"leakest/internal/core"
	"leakest/internal/placement"
	"leakest/internal/stats"
)

// mcZ is the z multiplier on Monte-Carlo standard errors. Five sigmas keep
// the deterministic seeded runs far from a flaky boundary while still
// failing loudly on any real bias; the σ comparison uses the normal-theory
// SE, which understates the lognormal totals' true error, and the wide z
// absorbs that too.
const mcZ = 5.0

// stage is one entry of the conformance registry: a named group of checks
// that builds its own fixtures and seeded streams, so any selection of
// stages reproduces exactly the checks those stages add to a full run.
type stage struct {
	name string
	run  func(h *harness, ctx context.Context) error
}

// stages is the conformance registry, in report order: the estimator
// cross-checks over every fixture, the frozen experiment goldens, the two
// distribution-tail gates, the quasi-Monte-Carlo suite, then the tiled
// pipeline's analytic and sampled-law gates.
var stages = []stage{
	{"fixtures", perFixture((*harness).runFixture)},
	{"golden", (*harness).runGolden},
	{"tail-analytic", (*harness).runTailAnalytic},
	{"tail-brute", (*harness).runTailBrute},
	{"qmc", (*harness).runQMC},
	{"tiled-fixtures", perFixture((*harness).runTiledFixture)},
	{"tiled-mc", (*harness).runTiledMC},
}

// selection is the part of the registry one harness run covers: the named
// stages (nil = every stage) over the named fixtures (nil = every fixture).
// A fixture subset also drops the fixtures' chip Monte-Carlo checks: the
// subsets serve the mutation self-check, whose 1 % perturbations sit below
// those standard-error-sized gates.
type selection struct {
	stages   []string
	fixtures []string
}

// Run executes the whole registry. Check failures land in the report; only
// infrastructure errors (library characterization, model construction)
// return a non-nil error.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	return run(ctx, cfg, selection{})
}

func run(ctx context.Context, cfg Config, sel selection) (*Report, error) {
	if cfg.Seed == 0 {
		cfg.Seed = DefaultSeed
	}
	lib, err := charlib.SharedCore()
	if err != nil {
		return nil, err
	}
	all, err := Fixtures(cfg.Short)
	if err != nil {
		return nil, err
	}
	fixtures := all
	if sel.fixtures != nil {
		fixtures = nil
		for _, fx := range all {
			if slices.Contains(sel.fixtures, fx.Name) {
				fx.MC = false
				fixtures = append(fixtures, fx)
			}
		}
	}
	rep := &Report{Short: cfg.Short, Seed: cfg.Seed, Workers: cfg.Workers}
	h := &harness{cfg: cfg, lib: lib, rep: rep, fixtures: fixtures}
	for _, st := range stages {
		if sel.stages != nil && !slices.Contains(sel.stages, st.name) {
			continue
		}
		if err := st.run(h, ctx); err != nil {
			return nil, fmt.Errorf("conformance: %s: %w", st.name, err)
		}
	}
	rep.tally()
	return rep, nil
}

// perFixture lifts a per-fixture stage body over the run's fixtures.
func perFixture(body func(*harness, context.Context, Fixture) error) func(*harness, context.Context) error {
	return func(h *harness, ctx context.Context) error {
		for _, fx := range h.fixtures {
			if err := body(h, ctx, fx); err != nil {
				return fmt.Errorf("fixture %s: %w", fx.Name, err)
			}
		}
		return nil
	}
}

type harness struct {
	cfg      Config
	lib      *charlib.Library
	rep      *Report
	fixtures []Fixture
}

// check records one numeric comparison.
func (h *harness) check(fixture, name, kind string, got, want float64, tol Tolerance, detail string) {
	allowed := tol.Allowed(want)
	m := margin(got, want, allowed)
	h.rep.Checks = append(h.rep.Checks, Check{
		Fixture: fixture, Name: name, Kind: kind,
		Got: got, Want: want, Tol: tol, Allowed: allowed,
		Margin: m, Pass: m <= 1, Detail: detail,
	})
}

// checkBehavior records a structural pass/fail expectation.
func (h *harness) checkBehavior(fixture, name string, pass bool, detail string) {
	m := 0.0
	if !pass {
		m = math.Inf(1)
	}
	h.rep.Checks = append(h.rep.Checks, Check{
		Fixture: fixture, Name: name, Kind: KindBehavior,
		Margin: m, Pass: pass, Detail: detail,
	})
}

// mutate applies the configured perturbation to a finished estimate's
// (mean, std) pair when the target matches — the hook SelfCheck uses to
// prove the checks have teeth. The independent references are computed
// outside this hook, so a mutated estimator always disagrees with its
// reference.
func (h *harness) mutate(target string, mean, std *float64) {
	mu := h.cfg.Mutation
	if mu == nil || mu.Target != target {
		return
	}
	switch mu.Moment {
	case "mean":
		*mean *= mu.Factor
	case "std":
		*std *= mu.Factor
	}
}

// fixtureModel builds the full-occupancy RG model of a fixture's grid.
func (h *harness) fixtureModel(ctx context.Context, fx Fixture) (*core.Model, error) {
	spec := core.DesignSpec{
		Hist: fx.Hist, N: fx.N(),
		W:          float64(fx.Cols) * placement.DefaultSitePitch,
		H:          float64(fx.Rows) * placement.DefaultSitePitch,
		SignalProb: fx.SignalProb,
	}
	m, err := core.NewModelCtx(ctx, h.lib, fx.Proc, spec, core.Analytic)
	if err != nil {
		return nil, err
	}
	m.Workers = h.cfg.Workers
	return m, nil
}

func (h *harness) runFixture(ctx context.Context, fx Fixture) error {
	n := fx.N()
	m, err := h.fixtureModel(ctx, fx)
	if err != nil {
		return err
	}
	nMean := float64(n) * m.MeanPerGate()

	// --- O(n) linear vs brute-force Eq. 15 over the full site grid ------
	lin, err := m.EstimateLinearCtx(ctx)
	if err != nil {
		return err
	}
	h.mutate("linear", &lin.Mean, &lin.Std)
	h.checkBehavior(fx.Name, "linear/full-occupancy", lin.Note == "",
		"fixture grids are full-occupancy; occupancy scaling must not engage")
	h.check(fx.Name, "linear/mean-identity", KindExact, lin.Mean, nMean, Exact(),
		"every RG estimator's mean is n·µ_XI")
	brute := bruteStd(m, lin.GridRows, lin.GridCols)
	h.check(fx.Name, "linear/std-vs-brute-force", KindExact, lin.Std, brute, Exact(),
		"Eq. 17 distance regrouping ≡ Eq. 15 site-pair sum")

	// --- naive baseline: an exact closed form ---------------------------
	naive, err := m.EstimateNaiveCtx(ctx)
	if err != nil {
		return err
	}
	h.mutate("naive", &naive.Mean, &naive.Std)
	h.check(fx.Name, "naive/mean-identity", KindExact, naive.Mean, nMean, Exact(), "")
	h.check(fx.Name, "naive/std-identity", KindExact, naive.Std,
		math.Sqrt(float64(n)*m.RGVariance()), Exact(), "independence baseline is √(n·σ²_XI)")

	// --- O(1) integral: Eq. 20 in polar form (Eqs. 25–26) ----------------
	polar, err := m.EstimatePolarCtx(ctx)
	if err != nil {
		return err
	}
	h.mutate("polar", &polar.Mean, &polar.Std)
	h.check(fx.Name, "polar/mean-identity", KindExact, polar.Mean, nMean, Exact(), "")
	h.check(fx.Name, "polar/std-vs-refined-quadrature", KindExact,
		polar.Std, integral2DRefStd(m), Tolerance{Rel: 1e-6},
		"Eq. 20 in polar coordinates against the Cartesian form on a dense panel grid")
	intBound := fx.IntErrBoundPct
	detail := "measured envelope of this off-corner fixture"
	if intBound == 0 {
		intBound, _ = RecordedEnvelope("e7.integral_err", n)
		detail = "E7 recorded envelope at this size"
	}
	h.check(fx.Name, "polar/std-vs-linear", KindApprox, polar.Std, lin.Std,
		RelPct(intBound), detail)

	if fx.Placed {
		if err := h.runPlaced(ctx, fx, m); err != nil {
			return err
		}
	}
	return nil
}

// runPlaced builds a seeded random placed circuit on the fixture grid and
// cross-validates the O(n²) truth path and (optionally) the chip-level
// Monte Carlo against it.
func (h *harness) runPlaced(ctx context.Context, fx Fixture, m *core.Model) error {
	n := fx.N()
	nl, pl, err := placedCircuit(h.lib, h.cfg.Seed, fx.Name, "conf-"+fx.Name, n, 16, fx.Hist,
		float64(fx.Cols)/float64(fx.Rows))
	if err != nil {
		return err
	}
	// The extracted spec replaces the fixture histogram with the realized
	// one (the late-mode flow), making Σµ_g = n·µ_XI an identity.
	spec, err := core.ExtractSpec(nl, pl, fx.SignalProb)
	if err != nil {
		return err
	}
	em, err := core.NewModelCtx(ctx, h.lib, fx.Proc, spec, core.Analytic)
	if err != nil {
		return err
	}
	em.Workers = h.cfg.Workers

	truth, err := core.TrueStatsCtx(ctx, em, nl, pl)
	if err != nil {
		return err
	}
	h.mutate("truth", &truth.Mean, &truth.Std)
	refMean, refStd, err := serialTruthRef(em, nl, pl)
	if err != nil {
		return err
	}
	h.check(fx.Name, "truth/mean-vs-serial-reference", KindExact, truth.Mean, refMean, Exact(),
		"Eq. 15 on integer lag counts vs an independent serial pair loop")
	h.check(fx.Name, "truth/std-vs-serial-reference", KindExact, truth.Std, refStd, Exact(), "")
	h.check(fx.Name, "truth/mean-identity", KindExact, truth.Mean,
		float64(n)*em.MeanPerGate(), Exact(),
		"extracted histogram makes Σµ_g = n·µ_XI exact (the E5 observation)")

	lin, err := em.EstimateLinearCtx(ctx)
	if err != nil {
		return err
	}
	h.mutate("linear", &lin.Mean, &lin.Std)
	e4Bound, _ := RecordedEnvelope("e4.envelope", n)
	h.check(fx.Name, "truth/std-vs-rg-estimate", KindApprox, truth.Std, lin.Std,
		RelPct(e4Bound), "one placed circuit against the RG abstraction (E4 envelope)")

	if fx.MC {
		trials := 1500
		if h.cfg.Short {
			trials = 400
		}
		mc, err := chipmc.RunContext(ctx, chipmc.Config{
			Lib: h.lib, Proc: fx.Proc, SignalProb: fx.SignalProb,
			Samples: trials, Seed: h.cfg.Seed, Workers: h.cfg.Workers, MaxGates: n,
		}, nl, pl)
		if err != nil {
			return err
		}
		h.check(fx.Name, "chipmc/mean-vs-truth", KindStatistical, mc.Mean, truth.Mean,
			Tolerance{Abs: mcZ * mc.MeanSE()},
			fmt.Sprintf("%d trials, tolerance %g·SE_mean", mc.Samples, mcZ))
		h.check(fx.Name, "chipmc/std-vs-truth", KindStatistical, mc.Std, truth.Std,
			StdSETol(truth.Std, mc.Samples, mcZ),
			fmt.Sprintf("%d trials, tolerance %g·SE_σ (normal theory)", mc.Samples, mcZ))
		h.checkBehavior(fx.Name, "chipmc/quantile-order",
			mc.Q05 < mc.Mean && mc.Mean < mc.Q95,
			"sampled 5th/95th percentiles must bracket the mean")

		// The FFT grid sampler is an independent construction of the same
		// field distribution; its moments must agree with the dense referee
		// within the combined standard errors of two independent MC runs.
		fftmc, err := chipmc.RunContext(ctx, chipmc.Config{
			Lib: h.lib, Proc: fx.Proc, SignalProb: fx.SignalProb,
			Samples: trials, Seed: h.cfg.Seed, Workers: h.cfg.Workers,
			MaxGates: n, Sampler: chipmc.SamplerFFT,
		}, nl, pl)
		if err != nil {
			return err
		}
		meanSE := math.Hypot(mc.MeanSE(), fftmc.MeanSE())
		stdSE := math.Hypot(stats.StdSE(mc.Std, mc.Samples), stats.StdSE(fftmc.Std, fftmc.Samples))
		h.check(fx.Name, "chipmc/fft-mean-vs-dense", KindStatistical, fftmc.Mean, mc.Mean,
			Tolerance{Abs: mcZ * meanSE},
			fmt.Sprintf("circulant-embedding sampler vs dense-Cholesky referee, %d trials each", trials))
		h.check(fx.Name, "chipmc/fft-std-vs-dense", KindStatistical, fftmc.Std, mc.Std,
			Tolerance{Abs: mcZ * stdSE},
			"independent samplers of the same field covariance must match in σ")
	}
	return nil
}

// runGolden recomputes the E1–E6 experiment shapes and compares them to
// the frozen values in testdata/golden.json.
func (h *harness) runGolden(ctx context.Context) error {
	frozen, err := FrozenGolden()
	if err != nil {
		return err
	}
	live, err := ComputeGolden(ctx, h.cfg.Workers)
	if err != nil {
		return err
	}
	liveByName := make(map[string]GoldenEntry, len(live))
	for _, e := range live {
		liveByName[e.Name] = e
	}
	h.checkBehavior("", "golden/coverage", len(frozen) == len(live),
		fmt.Sprintf("frozen entries %d, live entries %d — regenerate with `go generate ./internal/conformance`",
			len(frozen), len(live)))
	for _, fz := range frozen {
		lv, ok := liveByName[fz.Name]
		if !ok {
			h.checkBehavior("", "golden/"+fz.Name, false,
				"frozen entry no longer computed — regenerate the goldens")
			continue
		}
		h.check("", "golden/"+fz.Name, KindGolden, lv.Value, fz.Value, fz.Tol, fz.Note)
		if fz.Bound > 0 {
			h.check("", "golden/"+fz.Name+"/envelope", KindApprox, lv.Value, 0,
				Tolerance{Abs: fz.Bound},
				fmt.Sprintf("recorded envelope: value must stay under %g", fz.Bound))
		}
	}
	return nil
}
