package leakest

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"leakest/internal/cells"
	"leakest/internal/fault"
)

// robustCircuit builds a placed random circuit for the cancellation and
// degradation tests.
func robustCircuit(t *testing.T, n int) (*Estimator, *Netlist, *Placement) {
	t.Helper()
	est := coreEstimator(t)
	nl, err := RandomCircuit(est.Library(), 7, "robust", n, 8, coreHist(t))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := AutoPlace(nl, 7)
	if err != nil {
		t.Fatal(err)
	}
	return est, nl, pl
}

// TestPlacedDesignDoors: every analytic late-mode entry extracts the design
// first, so a placement with a site past the grid, a negative site, a
// shared site or one gate short is a typed InvalidInput from
// core.ExtractSpec at each of them — also under a budget whose ladder
// skips the O(n²) rung and never reads the placement.
func TestPlacedDesignDoors(t *testing.T) {
	est, nl, pl := robustCircuit(t, 60)
	budgeted := *est
	budgeted.Budget = EstimateBudget{MaxGates: 1}
	ctx := context.Background()
	doors := map[string]func(*Placement) error{
		"TrueLeakageContext": func(p *Placement) error {
			_, err := est.TrueLeakageContext(ctx, nl, p, 0.5)
			return err
		},
		"TrueLeakageContext/budget": func(p *Placement) error {
			_, err := budgeted.TrueLeakageContext(ctx, nl, p, 0.5)
			return err
		},
		"EstimateNetlist": func(p *Placement) error {
			_, err := est.EstimateNetlist(nl, p, 0.5, Linear)
			return err
		},
	}
	edit := func(f func(site []int) []int) *Placement {
		return &Placement{Grid: pl.Grid, Site: f(append([]int(nil), pl.Site...))}
	}
	bad := map[string]*Placement{
		"site past the grid": edit(func(s []int) []int { s[3] = pl.Grid.Sites() + 7; return s }),
		"negative site":      edit(func(s []int) []int { s[3] = -1; return s }),
		"shared site":        edit(func(s []int) []int { s[3] = s[1]; return s }),
		"short placement":    edit(func(s []int) []int { return s[:len(s)-1] }),
	}
	for door, run := range doors {
		for name, p := range bad {
			err := run(p)
			if !errors.Is(err, ErrInvalidInput) || !strings.Contains(err.Error(), "core.ExtractSpec") {
				t.Errorf("%s, %s: got %v, want InvalidInput at core.ExtractSpec", door, name, err)
			}
		}
		if err := run(pl); err != nil {
			t.Errorf("%s: valid placement refused: %v", door, err)
		}
	}
}

func TestEstimateValidatesDesign(t *testing.T) {
	est := coreEstimator(t)
	good := Design{Hist: coreHist(t), N: 100, W: 50, H: 50, SignalProb: 0.5}
	bad := []struct {
		name   string
		mutate func(*Design)
	}{
		{"nil histogram", func(d *Design) { d.Hist = nil }},
		{"zero gates", func(d *Design) { d.N = 0 }},
		{"negative gates", func(d *Design) { d.N = -5 }},
		{"zero width", func(d *Design) { d.W = 0 }},
		{"NaN width", func(d *Design) { d.W = math.NaN() }},
		{"Inf height", func(d *Design) { d.H = math.Inf(1) }},
		{"negative height", func(d *Design) { d.H = -10 }},
		{"signal prob > 1", func(d *Design) { d.SignalProb = 1.5 }},
		{"signal prob < 0", func(d *Design) { d.SignalProb = -0.1 }},
		{"NaN signal prob", func(d *Design) { d.SignalProb = math.NaN() }},
	}
	for _, c := range bad {
		d := good
		c.mutate(&d)
		_, err := est.EstimateContext(context.Background(), d, Auto)
		if !errors.Is(err, ErrInvalidInput) {
			t.Errorf("%s: got %v, want InvalidInput", c.name, err)
		}
	}
	if _, err := est.EstimateContext(context.Background(), good, Auto); err != nil {
		t.Errorf("valid design rejected: %v", err)
	}
	// Unknown methods are invalid input too.
	if _, err := est.EstimateContext(context.Background(), good, Method(99)); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("unknown method: want InvalidInput")
	}
}

func TestCanceledContextStopsEstimate(t *testing.T) {
	est := coreEstimator(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	design := Design{Hist: coreHist(t), N: 500, W: 100, H: 100, SignalProb: 0.5}
	_, err := est.EstimateContext(ctx, design, Linear)
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("EstimateContext on canceled ctx: got %v, want Canceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("typed Canceled error does not match context.Canceled")
	}
}

func TestCanceledContextStopsCharacterization(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CharacterizeContext(ctx, cells.CoreSubset(), CharConfig{
		Process: DefaultProcess(), MCSamples: 500, Seed: 1,
	})
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("CharacterizeContext on canceled ctx: got %v, want Canceled", err)
	}
}

func TestDeadlineStopsCharacterizationMidLoop(t *testing.T) {
	defer fault.Reset()
	// Slow every state characterization so a short deadline lands mid-run.
	fault.Arm(fault.SiteCharState, fault.Action{Kind: fault.Sleep, Delay: 5 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := CharacterizeContext(ctx, cells.CoreSubset(), CharConfig{
		Process: DefaultProcess(), MCSamples: 500, Seed: 1,
	})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	// The full core subset has dozens of states; the deadline must have
	// stopped characterization after only a few.
	states := 0
	for _, c := range cells.CoreSubset() {
		states += c.NumStates()
	}
	if hits := fault.Hits(fault.SiteCharState); hits >= states {
		t.Errorf("characterization ran all %d states despite deadline", hits)
	}
}

func TestCanceledContextStopsTrueLeakage(t *testing.T) {
	est, nl, pl := robustCircuit(t, 200)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := est.TrueLeakageContext(ctx, nl, pl, 0.5)
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("TrueLeakageContext on canceled ctx: got %v, want Canceled", err)
	}
}

func TestDeadlineStopsTrueLeakageMidLoop(t *testing.T) {
	defer fault.Reset()
	est, nl, pl := robustCircuit(t, 200)
	fault.Arm(fault.SiteTruthRow, fault.Action{Kind: fault.Sleep, Delay: 2 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := est.TrueLeakageContext(ctx, nl, pl, 0.5)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if hits := fault.Hits(fault.SiteTruthRow); hits >= len(nl.Gates) {
		t.Errorf("pair loop ran all %d rows despite deadline", hits)
	}
}

func TestCanceledContextStopsMonteCarloMidLoop(t *testing.T) {
	defer fault.Reset()
	est, nl, pl := robustCircuit(t, 16)
	// Cancel before starting: typed Canceled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := est.MonteCarloContext(ctx, nl, pl, 0.5, 100, 1); !errors.Is(err, ErrCanceled) {
		t.Errorf("pre-canceled MC: got %v, want Canceled", err)
	}
	// Slow trials + short deadline: stops within one check interval.
	fault.Arm(fault.SiteChipMCTrial, fault.Action{Kind: fault.Sleep, Delay: 2 * time.Millisecond})
	dctx, dcancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer dcancel()
	const samples = 2000
	_, err := est.MonteCarloContext(dctx, nl, pl, 0.5, samples, 1)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if hits := fault.Hits(fault.SiteChipMCTrial); hits >= samples {
		t.Errorf("MC ran all %d trials despite deadline", hits)
	}
}

func TestMonteCarloGateBudgetTyped(t *testing.T) {
	est, nl, pl := robustCircuit(t, 16)
	// A per-run budget below the gate count must refuse with a typed
	// BudgetExceeded, not run forever or crash.
	_, err := monteCarloCapped(est, nl, pl, 50, 8)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("got %v, want BudgetExceeded", err)
	}
	if err != nil && !strings.Contains(err.Error(), "analytic estimators") {
		t.Errorf("budget error does not point to the analytic estimators: %v", err)
	}
}

func TestBudgetRulesOutTruthDegradesToLinear(t *testing.T) {
	est, nl, pl := robustCircuit(t, 150)
	budget := EstimateBudget{MaxPairs: 100} // rules out 150·149/2 pairs
	res, err := budgeted(est, budget).TrueLeakageContext(context.Background(), nl, pl, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Errorf("result not flagged Degraded")
	}
	if res.Method != "linear" {
		t.Errorf("degraded to %q, want linear", res.Method)
	}
	if !strings.Contains(res.DegradeReason, "MaxPairs") {
		t.Errorf("DegradeReason %q does not name the tripped budget", res.DegradeReason)
	}
	// The degraded statistics must match the O(n) estimator exactly.
	want, err := est.EstimateNetlist(nl, pl, 0.5, Linear)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean != want.Mean || res.Std != want.Std {
		t.Errorf("degraded result (%g, %g) != linear estimator (%g, %g)",
			res.Mean, res.Std, want.Mean, want.Std)
	}
}

func TestBudgetRulesOutLinearDegradesToConstantTime(t *testing.T) {
	est, nl, pl := robustCircuit(t, 150)
	budget := EstimateBudget{MaxGates: 10} // rules out both O(n²) and O(n)
	res, err := budgeted(est, budget).TrueLeakageContext(context.Background(), nl, pl, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Errorf("result not flagged Degraded")
	}
	if res.Method != "polar-1d" {
		t.Errorf("degraded to %q, want polar-1d", res.Method)
	}
	// Within budget: no degradation, exact truth.
	res, err = budgeted(est, EstimateBudget{}).TrueLeakageContext(context.Background(), nl, pl, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || res.Method != "true-n2" {
		t.Errorf("unlimited budget gave %q (degraded=%v), want true-n2", res.Method, res.Degraded)
	}
}

func TestBudgetTimeoutDegradesToLinear(t *testing.T) {
	defer fault.Reset()
	est, nl, pl := robustCircuit(t, 200)
	fault.Arm(fault.SiteTruthRow, fault.Action{Kind: fault.Sleep, Delay: 2 * time.Millisecond})
	budget := EstimateBudget{Timeout: 25 * time.Millisecond}
	res, err := budgeted(est, budget).TrueLeakageContext(context.Background(), nl, pl, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.Method != "linear" {
		t.Errorf("timed-out truth degraded to %q (degraded=%v), want linear", res.Method, res.Degraded)
	}
	if !strings.Contains(res.DegradeReason, "timed out") {
		t.Errorf("DegradeReason %q does not mention the timeout", res.DegradeReason)
	}
}

func TestEstimateBudgetedEarlyMode(t *testing.T) {
	est := coreEstimator(t)
	design := Design{Hist: coreHist(t), N: 5000, W: 200, H: 200, SignalProb: 0.5}
	// Within budget: exact linear, not degraded.
	res, err := budgeted(est, EstimateBudget{MaxGates: design.N}).EstimateContext(context.Background(), design, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || res.Method != "linear" {
		t.Errorf("unlimited budget gave %q (degraded=%v)", res.Method, res.Degraded)
	}
	// MaxGates below N: constant-time fallback, flagged.
	res, err = budgeted(est, EstimateBudget{MaxGates: 100}).EstimateContext(context.Background(), design, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Errorf("result not flagged Degraded")
	}
	if res.Method != "polar-1d" {
		t.Errorf("degraded to %q, want polar-1d", res.Method)
	}
}

// TestFaultSitesMapToTypedErrors is the fault-injection table: every
// instrumented site, armed with NaN corruption or a panic, must surface as
// a typed Numerical error from the public API — never as a silent NaN
// result.
func TestFaultSitesMapToTypedErrors(t *testing.T) {
	est, nl, pl := robustCircuit(t, 16)
	design := Design{Hist: coreHist(t), N: 500, W: 100, H: 100, SignalProb: 0.5}

	charCfg := CharConfig{Process: DefaultProcess(), MCSamples: 500, Seed: 1}
	charCells := cells.ISCASSubset()[:2]

	cases := []struct {
		name string
		site string
		kind fault.Kind
		run  func() error
	}{
		{"characterization NaN", fault.SiteCharMoments, fault.NaN, func() error {
			_, err := CharacterizeContext(context.Background(), charCells, charCfg)
			return err
		}},
		{"characterization panic", fault.SiteCharState, fault.Panic, func() error {
			_, err := CharacterizeContext(context.Background(), charCells, charCfg)
			return err
		}},
		{"Cholesky NaN", fault.SiteCholesky, fault.NaN, func() error {
			_, err := est.MonteCarloContext(context.Background(), nl, pl, 0.5, 50, 1)
			return err
		}},
		{"Cholesky panic", fault.SiteCholesky, fault.Panic, func() error {
			_, err := est.MonteCarloContext(context.Background(), nl, pl, 0.5, 50, 1)
			return err
		}},
		{"MC accumulation NaN", fault.SiteChipMCTrial, fault.NaN, func() error {
			_, err := est.MonteCarloContext(context.Background(), nl, pl, 0.5, 50, 1)
			return err
		}},
		{"MC accumulation panic", fault.SiteChipMCTrial, fault.Panic, func() error {
			_, err := est.MonteCarloContext(context.Background(), nl, pl, 0.5, 50, 1)
			return err
		}},
		{"truth accumulation NaN", fault.SiteTruthRow, fault.NaN, func() error {
			_, err := est.TrueLeakageContext(context.Background(), nl, pl, 0.5)
			return err
		}},
		{"truth accumulation panic", fault.SiteTruthRow, fault.Panic, func() error {
			_, err := est.TrueLeakageContext(context.Background(), nl, pl, 0.5)
			return err
		}},
		{"linear accumulation NaN", fault.SiteLinearAccum, fault.NaN, func() error {
			_, err := est.EstimateContext(context.Background(), design, Linear)
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer fault.Reset()
			fault.Arm(c.site, fault.Action{Kind: c.kind})
			err := c.run()
			if !errors.Is(err, ErrNumerical) {
				t.Errorf("fault at %s surfaced as %v, want Numerical", c.site, err)
			}
			var ee *EstimationError
			if !errors.As(err, &ee) || ee.Op == "" {
				t.Errorf("fault at %s lost its faulting site: %v", c.site, err)
			}
		})
	}
}

// TestNoSilentNaNWithoutFaults double-checks the guards do not misfire on
// healthy runs under every public entry point used above.
func TestNoSilentNaNWithoutFaults(t *testing.T) {
	est, nl, pl := robustCircuit(t, 16)
	if _, err := est.MonteCarloContext(context.Background(), nl, pl, 0.5, 50, 1); err != nil {
		t.Errorf("MonteCarlo: %v", err)
	}
	if _, err := est.TrueLeakageContext(context.Background(), nl, pl, 0.5); err != nil {
		t.Errorf("TrueLeakage: %v", err)
	}
}
