package experiments

import (
	"fmt"
	"math"
	"time"

	"leakest/internal/charlib"
	"leakest/internal/chipmc"
	"leakest/internal/core"
	"leakest/internal/iscas"
	"leakest/internal/netlist"
	"leakest/internal/placement"
	"leakest/internal/spatial"
	"leakest/internal/stats"
)

// ChipProcess returns the variation model used by the chip-level
// experiments: the default 90 nm sigma split with a within-die correlation
// length matched to the benchmark die scale (tens to hundreds of µm), and a
// hard range of four correlation lengths.
func ChipProcess() *spatial.Process {
	base := spatial.Default90nm()
	return &spatial.Process{
		LNominal: base.LNominal,
		SigmaD2D: base.SigmaD2D,
		SigmaWID: base.SigmaWID,
		SigmaVt:  base.SigmaVt,
		WIDCorr:  spatial.TruncatedExpCorr{Lambda: 30, R: 120},
	}
}

// arityOf builds a netlist.CellArity from a characterized library.
func arityOf(lib *charlib.Library) netlist.CellArity {
	return func(typ string) (int, error) {
		cc, err := lib.Cell(typ)
		if err != nil {
			return 0, err
		}
		return cc.NumInputs, nil
	}
}

// Fig6Config parameterizes the random-circuit convergence experiment.
type Fig6Config struct {
	Lib  *charlib.Library
	Proc *spatial.Process
	Hist *stats.Histogram
	// Sides lists RG-array side lengths; each size is side² gates (the
	// paper sweeps up to 106² = 11 236).
	Sides []int
	// Reps is the number of random circuits per size.
	Reps int
	Seed int64
	Mode core.Mode
	// SignalProb for all gates (default 0.5).
	SignalProb float64
}

// Fig6 regenerates Figure 6: for each circuit size, many random circuits
// sharing the same high-level characteristics are generated, placed, and
// analysed with the O(n²) true-leakage computation; the maximum positive
// and negative deviations of their means and standard deviations from the
// Random-Gate estimate are reported. The paper finds the envelope shrinks
// towards zero with size (2.2 % at 11 236 gates).
func Fig6(cfg Fig6Config) (*Table, error) {
	if cfg.Lib == nil || cfg.Hist == nil || len(cfg.Sides) == 0 {
		return nil, fmt.Errorf("experiments: Fig6 needs a library, histogram and sizes")
	}
	if cfg.Proc == nil {
		cfg.Proc = ChipProcess()
	}
	if cfg.Reps == 0 {
		cfg.Reps = 10
	}
	if cfg.SignalProb == 0 {
		cfg.SignalProb = 0.5
	}
	arity := arityOf(cfg.Lib)
	t := &Table{
		ID:    "E4",
		Title: "Fig. 6: random-circuit deviation from the RG estimate vs circuit size",
		Header: []string{"n", "mean err +max", "mean err -max", "std err +max", "std err -max",
			"|envelope|"},
	}
	lastEnvelope := 0.0
	for _, side := range cfg.Sides {
		n := side * side
		w := float64(side) * placement.DefaultSitePitch
		spec := core.DesignSpec{Hist: cfg.Hist, N: n, W: w, H: w, SignalProb: cfg.SignalProb}
		model, err := core.NewModel(cfg.Lib, cfg.Proc, spec, cfg.Mode)
		if err != nil {
			return nil, err
		}
		est, err := model.EstimateLinear()
		if err != nil {
			return nil, err
		}
		grid, err := placement.NewGrid(n, placement.DefaultSitePitch, placement.DefaultSitePitch, 1)
		if err != nil {
			return nil, err
		}
		meanPos, meanNeg, stdPos, stdNeg := 0.0, 0.0, 0.0, 0.0
		for rep := 0; rep < cfg.Reps; rep++ {
			rng := stats.NewRNG(cfg.Seed, fmt.Sprintf("fig6/%d/%d", n, rep))
			nl, err := netlist.RandomCircuit(rng, fmt.Sprintf("rand%d-%d", n, rep), n, 16, cfg.Hist, arity)
			if err != nil {
				return nil, err
			}
			pl, err := placement.Random(rng, grid, n)
			if err != nil {
				return nil, err
			}
			truth, err := core.TrueStats(model, nl, pl)
			if err != nil {
				return nil, err
			}
			meanErr := stats.RelErr(truth.Mean, est.Mean)
			stdErr := stats.RelErr(truth.Std, est.Std)
			meanPos = math.Max(meanPos, meanErr)
			meanNeg = math.Min(meanNeg, meanErr)
			stdPos = math.Max(stdPos, stdErr)
			stdNeg = math.Min(stdNeg, stdErr)
		}
		envelope := math.Max(math.Max(meanPos, -meanNeg), math.Max(stdPos, -stdNeg))
		lastEnvelope = envelope
		t.AddRow(fmt.Sprintf("%d", n), pct(meanPos), pct(meanNeg), pct(stdPos), pct(stdNeg), pct(envelope))
		t.AddClaim("e4.envelope", n, envelope)
	}
	t.AddNote("envelope at the largest size: %s (paper: 2.2%% at 11 236 gates)", pct(lastEnvelope))
	t.AddNote("%d random circuits per size, mode %s", cfg.Reps, cfg.Mode)
	return t, nil
}

// Table1Config parameterizes the ISCAS85 late-mode experiment.
type Table1Config struct {
	Lib  *charlib.Library
	Proc *spatial.Process
	Seed int64
	Mode core.Mode
	// SignalProb for all gates (default 0.5).
	SignalProb float64
	// Names optionally restricts the circuits (default: the paper's nine).
	Names []string
}

// Table1 regenerates Table 1: for each (synthetic) ISCAS85 circuit, the
// high-level characteristics are extracted from the placed netlist, the
// Random-Gate model estimates the full-chip statistics, and the error
// against the O(n²) true leakage is reported. The paper's errors range from
// 0.23 % to 1.38 % for σ, with negligible mean errors.
func Table1(cfg Table1Config) (*Table, error) {
	if cfg.Lib == nil {
		return nil, fmt.Errorf("experiments: Table1 needs a library")
	}
	if cfg.Proc == nil {
		cfg.Proc = ChipProcess()
	}
	if cfg.SignalProb == 0 {
		cfg.SignalProb = 0.5
	}
	if len(cfg.Names) == 0 {
		cfg.Names = iscas.Table1Names()
	}
	arity := arityOf(cfg.Lib)
	t := &Table{
		ID:     "E5",
		Title:  "Table 1: % error in full-chip std dev, RG estimate vs true leakage (ISCAS85)",
		Header: []string{"circuit", "gates", "true std (A)", "RG std (A)", "std err", "mean err"},
	}
	worst := 0.0
	for _, name := range cfg.Names {
		ckt, err := iscas.Build(name, cfg.Seed, arity)
		if err != nil {
			return nil, err
		}
		spec, err := core.ExtractSpec(ckt.Netlist, ckt.Placement, cfg.SignalProb)
		if err != nil {
			return nil, err
		}
		model, err := core.NewModel(cfg.Lib, cfg.Proc, spec, cfg.Mode)
		if err != nil {
			return nil, err
		}
		truth, err := core.TrueStats(model, ckt.Netlist, ckt.Placement)
		if err != nil {
			return nil, err
		}
		est, err := model.EstimateLinear()
		if err != nil {
			return nil, err
		}
		stdErr := math.Abs(stats.RelErr(est.Std, truth.Std))
		meanErr := math.Abs(stats.RelErr(est.Mean, truth.Mean))
		worst = math.Max(worst, stdErr)
		t.AddRow(name, fmt.Sprintf("%d", len(ckt.Netlist.Gates)),
			f(truth.Std), f(est.Std), pct(stdErr), pct(meanErr))
	}
	t.AddNote("worst σ error: %s (paper: 0.23%%–1.38%% across the table)", pct(worst))
	t.AddClaim("e5.std_err_worst", 0, worst)
	return t, nil
}

// Fig7Config parameterizes the integral-vs-linear comparison.
type Fig7Config struct {
	Lib  *charlib.Library
	Proc *spatial.Process
	Hist *stats.Histogram
	// Sides lists RG-array side lengths (n = side²); the paper sweeps from
	// tens of gates to beyond 10⁵.
	Sides      []int
	Mode       core.Mode
	SignalProb float64
}

// Fig7 regenerates Figure 7: the % error between the constant-time
// numerical-integration estimate (Eq. 20, evaluated in its polar form,
// Eqs. 25–26) and the linear-time algorithm (Eq. 17) as a function of
// circuit size. The paper reports > 1 % below ~100 gates and < 0.01 %
// beyond ten thousand gates.
func Fig7(cfg Fig7Config) (*Table, error) {
	if cfg.Lib == nil || cfg.Hist == nil || len(cfg.Sides) == 0 {
		return nil, fmt.Errorf("experiments: Fig7 needs a library, histogram and sizes")
	}
	if cfg.Proc == nil {
		cfg.Proc = ChipProcess()
	}
	if cfg.SignalProb == 0 {
		cfg.SignalProb = 0.5
	}
	t := &Table{
		ID:     "E7",
		Title:  "Fig. 7: % error of constant-time integration vs linear-time algorithm",
		Header: []string{"n", "linear std (A)", "integral std (A)", "|err|"},
	}
	for _, side := range cfg.Sides {
		n := side * side
		w := float64(side) * placement.DefaultSitePitch
		spec := core.DesignSpec{Hist: cfg.Hist, N: n, W: w, H: w, SignalProb: cfg.SignalProb}
		model, err := core.NewModel(cfg.Lib, cfg.Proc, spec, cfg.Mode)
		if err != nil {
			return nil, err
		}
		lin, err := model.EstimateLinear()
		if err != nil {
			return nil, err
		}
		integ, err := model.EstimatePolar()
		if err != nil {
			return nil, err
		}
		ie := math.Abs(stats.RelErr(integ.Std, lin.Std))
		t.AddClaim("e7.integral_err", n, ie)
		t.AddRow(fmt.Sprintf("%d", n), f(lin.Std), f(integ.Std), pct(ie))
	}
	t.AddNote("paper: error > 1%% below ~100 gates, < 0.01%% beyond 10⁴ gates")
	return t, nil
}

// SimplifiedCorrConfig parameterizes the §3.1.2 assumption check.
type SimplifiedCorrConfig struct {
	Lib        *charlib.Library
	Proc       *spatial.Process
	Hist       *stats.Histogram
	Sides      []int
	SignalProb float64
}

// SimplifiedCorr regenerates the §3.1.2 validation: the error in the
// full-chip σ introduced by assuming ρ_leak = ρ_L instead of the exact
// f_{m,n} mapping, under WID-only and WID+D2D variations. The paper bounds
// it below 2.8 %.
func SimplifiedCorr(cfg SimplifiedCorrConfig) (*Table, error) {
	if cfg.Lib == nil || cfg.Hist == nil || len(cfg.Sides) == 0 {
		return nil, fmt.Errorf("experiments: SimplifiedCorr needs a library, histogram and sizes")
	}
	if cfg.Proc == nil {
		cfg.Proc = ChipProcess()
	}
	if cfg.SignalProb == 0 {
		cfg.SignalProb = 0.5
	}
	t := &Table{
		ID:     "E6",
		Title:  "§3.1.2: error of the simplified assumption rho_leak = rho_L",
		Header: []string{"variations", "n", "exact std (A)", "simplified std (A)", "|err|"},
	}
	worst := 0.0
	for _, allWID := range []bool{true, false} {
		proc := cfg.Proc
		label := "WID+D2D"
		if allWID {
			proc = cfg.Proc.AllWID()
			label = "WID only"
		}
		for _, side := range cfg.Sides {
			n := side * side
			w := float64(side) * placement.DefaultSitePitch
			spec := core.DesignSpec{Hist: cfg.Hist, N: n, W: w, H: w, SignalProb: cfg.SignalProb}
			exact, err := core.NewModel(cfg.Lib, proc, spec, core.Analytic)
			if err != nil {
				return nil, err
			}
			simplified, err := core.NewModel(cfg.Lib, proc, spec, core.AnalyticSimplified)
			if err != nil {
				return nil, err
			}
			e, err := exact.EstimateLinear()
			if err != nil {
				return nil, err
			}
			s, err := simplified.EstimateLinear()
			if err != nil {
				return nil, err
			}
			errPct := math.Abs(stats.RelErr(s.Std, e.Std))
			worst = math.Max(worst, errPct)
			t.AddRow(label, fmt.Sprintf("%d", n), f(e.Std), f(s.Std), pct(errPct))
		}
	}
	t.AddNote("worst error: %s (paper: below 2.8%% in both configurations)", pct(worst))
	t.AddClaim("e6.simpl_err_worst", 0, worst)
	return t, nil
}

// VtAblationConfig parameterizes the Vt-randomness ablation.
type VtAblationConfig struct {
	Lib   *charlib.Library
	Proc  *spatial.Process
	Hist  *stats.Histogram
	Sides []int
	// Samples per chip-level Monte Carlo (default 1500).
	Samples    int
	Seed       int64
	SignalProb float64
}

// VtAblation validates the §2.1 modelling decision: purely random Vt
// fluctuation multiplies the mean leakage by a known lognormal factor but
// contributes negligibly to the full-chip spread (variance of independent
// contributions grows ~n while correlated-L variance grows ~n²).
func VtAblation(cfg VtAblationConfig) (*Table, error) {
	if cfg.Lib == nil || cfg.Hist == nil || len(cfg.Sides) == 0 {
		return nil, fmt.Errorf("experiments: VtAblation needs a library, histogram and sizes")
	}
	if cfg.Proc == nil {
		cfg.Proc = ChipProcess()
	}
	if cfg.Samples == 0 {
		cfg.Samples = 1500
	}
	if cfg.SignalProb == 0 {
		cfg.SignalProb = 0.5
	}
	arity := arityOf(cfg.Lib)
	t := &Table{
		ID:     "E9",
		Title:  "Vt-randomness ablation: mean multiplies, spread barely moves (§2.1)",
		Header: []string{"n", "mean ratio (MC)", "analytic factor", "CV no-Vt", "CV with-Vt"},
	}
	factor := cfg.Lib.VtMeanFactor()
	for _, side := range cfg.Sides {
		n := side * side
		rng := stats.NewRNG(cfg.Seed, fmt.Sprintf("vt/%d", n))
		nl, err := netlist.RandomCircuit(rng, fmt.Sprintf("vt%d", n), n, 16, cfg.Hist, arity)
		if err != nil {
			return nil, err
		}
		grid, err := placement.NewGrid(n, placement.DefaultSitePitch, placement.DefaultSitePitch, 1)
		if err != nil {
			return nil, err
		}
		pl, err := placement.Random(rng, grid, n)
		if err != nil {
			return nil, err
		}
		base, err := chipmc.Run(chipmc.Config{
			Lib: cfg.Lib, Proc: cfg.Proc, SignalProb: cfg.SignalProb,
			Samples: cfg.Samples, Seed: cfg.Seed}, nl, pl)
		if err != nil {
			return nil, err
		}
		withVt, err := chipmc.Run(chipmc.Config{
			Lib: cfg.Lib, Proc: cfg.Proc, SignalProb: cfg.SignalProb,
			Samples: cfg.Samples, Seed: cfg.Seed, IncludeVt: true}, nl, pl)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.3f", withVt.Mean/base.Mean),
			fmt.Sprintf("%.3f", factor),
			fmt.Sprintf("%.4f", base.Std/base.Mean),
			fmt.Sprintf("%.4f", withVt.Std/withVt.Mean))
	}
	t.AddNote("CV = σ/µ; matching CVs confirm Vt randomness is irrelevant to full-chip variance")
	return t, nil
}

// NaiveBaselineConfig parameterizes the independence-assumption comparison.
type NaiveBaselineConfig struct {
	Lib        *charlib.Library
	Proc       *spatial.Process
	Hist       *stats.Histogram
	Sides      []int
	Mode       core.Mode
	SignalProb float64
}

// NaiveBaseline contrasts the paper's correlated estimator with the early
// no-correlation estimators ([1, 2]-style): the naive σ falls further and
// further below the correlated σ as circuits grow, because correlated
// variance grows ~n² while independent variance grows ~n.
func NaiveBaseline(cfg NaiveBaselineConfig) (*Table, error) {
	if cfg.Lib == nil || cfg.Hist == nil || len(cfg.Sides) == 0 {
		return nil, fmt.Errorf("experiments: NaiveBaseline needs a library, histogram and sizes")
	}
	if cfg.Proc == nil {
		cfg.Proc = ChipProcess()
	}
	if cfg.SignalProb == 0 {
		cfg.SignalProb = 0.5
	}
	t := &Table{
		ID:     "E10",
		Title:  "naive independence baseline vs correlated RG estimate",
		Header: []string{"n", "correlated std (A)", "naive std (A)", "naive/correlated"},
	}
	prevRatio := math.Inf(1)
	for _, side := range cfg.Sides {
		n := side * side
		w := float64(side) * placement.DefaultSitePitch
		spec := core.DesignSpec{Hist: cfg.Hist, N: n, W: w, H: w, SignalProb: cfg.SignalProb}
		model, err := core.NewModel(cfg.Lib, cfg.Proc, spec, cfg.Mode)
		if err != nil {
			return nil, err
		}
		lin, err := model.EstimateLinear()
		if err != nil {
			return nil, err
		}
		naive, err := model.EstimateNaive()
		if err != nil {
			return nil, err
		}
		ratio := naive.Std / lin.Std
		t.AddRow(fmt.Sprintf("%d", n), f(lin.Std), f(naive.Std), fmt.Sprintf("%.4f", ratio))
		prevRatio = ratio
	}
	t.AddNote("final under-estimation factor: %.1fx — ignoring correlation is catastrophic at scale", 1/prevRatio)
	return t, nil
}

// ScalingConfig parameterizes the runtime-scaling measurement.
type ScalingConfig struct {
	Lib  *charlib.Library
	Proc *spatial.Process
	Hist *stats.Histogram
	// TrueSides are the sizes run through the O(n²) truth (kept small).
	TrueSides []int
	// FastSides are the sizes run through O(n) and O(1) estimators.
	FastSides  []int
	Seed       int64
	Mode       core.Mode
	SignalProb float64
}

// Scaling measures wall-clock runtime of the O(n²), O(n) and O(1)
// estimators across circuit sizes — the paper's complexity claims made
// concrete. Numbers are machine-dependent; the scaling trend is the point.
func Scaling(cfg ScalingConfig) (*Table, error) {
	if cfg.Lib == nil || cfg.Hist == nil {
		return nil, fmt.Errorf("experiments: Scaling needs a library and histogram")
	}
	if cfg.Proc == nil {
		cfg.Proc = ChipProcess()
	}
	if cfg.SignalProb == 0 {
		cfg.SignalProb = 0.5
	}
	if len(cfg.TrueSides) == 0 {
		cfg.TrueSides = []int{16, 24, 32}
	}
	if len(cfg.FastSides) == 0 {
		cfg.FastSides = []int{32, 100, 316, 1000}
	}
	arity := arityOf(cfg.Lib)
	t := &Table{
		ID:     "E11",
		Title:  "estimator runtime scaling (O(n²) true vs O(n) linear vs O(1) integral)",
		Header: []string{"method", "n", "time"},
	}
	timeIt := func(fn func() error) (time.Duration, error) {
		start := time.Now()
		err := fn()
		return time.Since(start), err
	}
	for _, side := range cfg.TrueSides {
		n := side * side
		rng := stats.NewRNG(cfg.Seed, fmt.Sprintf("scaling/%d", n))
		nl, err := netlist.RandomCircuit(rng, fmt.Sprintf("s%d", n), n, 16, cfg.Hist, arity)
		if err != nil {
			return nil, err
		}
		grid, _ := placement.NewGrid(n, placement.DefaultSitePitch, placement.DefaultSitePitch, 1)
		pl, err := placement.Random(rng, grid, n)
		if err != nil {
			return nil, err
		}
		spec := core.DesignSpec{Hist: cfg.Hist, N: n, W: grid.W(), H: grid.H(), SignalProb: cfg.SignalProb}
		model, err := core.NewModel(cfg.Lib, cfg.Proc, spec, cfg.Mode)
		if err != nil {
			return nil, err
		}
		// Warm the pair cache outside the timed region (one-time setup).
		if _, err := core.TrueStats(model, nl, pl); err != nil {
			return nil, err
		}
		d, err := timeIt(func() error { _, err := core.TrueStats(model, nl, pl); return err })
		if err != nil {
			return nil, err
		}
		t.AddRow("true O(n²)", fmt.Sprintf("%d", n), d.String())
	}
	for _, side := range cfg.FastSides {
		n := side * side
		w := float64(side) * placement.DefaultSitePitch
		spec := core.DesignSpec{Hist: cfg.Hist, N: n, W: w, H: w, SignalProb: cfg.SignalProb}
		model, err := core.NewModel(cfg.Lib, cfg.Proc, spec, cfg.Mode)
		if err != nil {
			return nil, err
		}
		d, err := timeIt(func() error { _, err := model.EstimateLinear(); return err })
		if err != nil {
			return nil, err
		}
		t.AddRow("linear O(n)", fmt.Sprintf("%d", n), d.String())
		d, err = timeIt(func() error { _, err := model.EstimatePolar(); return err })
		if err != nil {
			return nil, err
		}
		t.AddRow("polar O(1)", fmt.Sprintf("%d", n), d.String())
	}
	t.AddNote("paper: O(n) takes < 1 s below 1000 gates; integration recommended beyond")
	return t, nil
}
