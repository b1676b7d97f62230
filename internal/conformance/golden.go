package conformance

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"

	"leakest/internal/charlib"
	"leakest/internal/core"
	"leakest/internal/iscas"
	"leakest/internal/netlist"
	"leakest/internal/placement"
	"leakest/internal/spatial"
	"leakest/internal/stats"
)

//go:generate go run ./gengolden

// GoldenEntry freezes one experiment-shape scalar with its declared
// tolerance. Tol bounds the frozen-vs-recomputed drift (ULP-class: the
// computation is deterministic, the slack only absorbs cross-platform
// floating-point differences); Bound, when positive, is the recorded
// envelope the value itself must stay under — so a regeneration that
// "fixes" a regression by freezing a worse number still fails the gate.
type GoldenEntry struct {
	Name  string    `json:"name"`
	Value float64   `json:"value"`
	Tol   Tolerance `json:"tol"`
	Bound float64   `json:"bound,omitempty"`
	Note  string    `json:"note,omitempty"`
}

// goldenFile is the testdata/golden.json schema.
type goldenFile struct {
	Seed    int64         `json:"seed"`
	Entries []GoldenEntry `json:"entries"`
}

//go:embed testdata/golden.json
var goldenJSON []byte

// FrozenGolden returns the entries frozen in testdata/golden.json
// (regenerate with `go generate ./internal/conformance`).
func FrozenGolden() ([]GoldenEntry, error) {
	var f goldenFile
	if err := json.Unmarshal(goldenJSON, &f); err != nil {
		return nil, fmt.Errorf("conformance: parsing embedded golden.json: %w", err)
	}
	if f.Seed != DefaultSeed {
		return nil, fmt.Errorf("conformance: golden.json frozen at seed %d, harness runs seed %d — regenerate", f.Seed, DefaultSeed)
	}
	return f.Entries, nil
}

// goldenTol bounds frozen-vs-recomputed drift. The pipeline is fully
// deterministic at fixed seed, so this only needs to absorb cross-platform
// floating-point and math-library differences.
var goldenTol = Tolerance{Rel: 1e-6}

// ComputeGolden recomputes every golden value from scratch: the E1–E6
// experiment shapes of EXPERIMENTS.md at the shared-core scale, seed
// DefaultSeed. The same code path serves the harness (compare against the
// frozen file) and the gengolden generator (rewrite the frozen file).
func ComputeGolden(ctx context.Context, workers int) ([]GoldenEntry, error) {
	lib, err := charlib.SharedCore()
	if err != nil {
		return nil, err
	}
	var out []GoldenEntry
	add := func(name string, value float64, boundName, note string) {
		bound, _ := RecordedEnvelope(boundName, 0)
		out = append(out, GoldenEntry{Name: name, Value: value, Tol: goldenTol, Bound: bound, Note: note})
	}

	// E1: analytical-fit vs Monte-Carlo cell moments, worst over all
	// (cell, state) pairs in the shared-core library.
	meanMax, stdMax := lib.FitAccuracy()
	add("e1.mean_err_max", meanMax, "e1.mean_err_max", "worst |fit vs MC| cell mean error, % (§2.1.2)")
	add("e1.std_err_max", stdMax, "e1.std_err_max", "worst |fit vs MC| cell σ error, % (§2.1.2)")

	// E2: the f_{m,n} leakage-correlation mapping on the Fig. 2 pair.
	idDev, mcMismatch, err := goldenFig2(lib)
	if err != nil {
		return nil, err
	}
	add("e2.identity_dev", idDev, "e2.identity_dev", "max |f(ρ)−ρ|, NAND2/0 × NOR2/0 (Fig. 2)")
	add("e2.mc_mismatch", mcMismatch, "e2.mc_mismatch", "max |analytic−MC| leakage correlation (Fig. 2)")

	// E3: the conservative signal probability for the baseline mix.
	hist, err := baselineHist()
	if err != nil {
		return nil, err
	}
	pstar, err := charlib.MaximizingSignalProb(lib, hist, false)
	if err != nil {
		return nil, err
	}
	out = append(out, GoldenEntry{Name: "e3.pstar", Value: pstar, Tol: goldenTol,
		Note: "leakage-maximizing signal probability, baseline mix (Fig. 3)"})

	// E4: random-circuit deviation envelope from the RG estimate at n = 256.
	env, err := goldenFig6(ctx, lib, hist, workers)
	if err != nil {
		return nil, err
	}
	e4Bound, _ := RecordedEnvelope("e4.envelope", 256)
	out = append(out, GoldenEntry{Name: "e4.envelope_256", Value: env, Tol: goldenTol,
		Bound: e4Bound, Note: "max |truth−RG| envelope, 3 circuits, n=256, % (Fig. 6)"})

	// E5: ISCAS c432 σ error of the RG estimate against the O(n²) truth.
	e5, err := goldenTable1(ctx, lib, workers)
	if err != nil {
		return nil, err
	}
	add("e5.std_err_c432", e5, "e5.std_err_worst", "RG vs truth σ error on synthetic c432, % (Table 1)")

	// E6: the ρ_leak = ρ_L simplification error at n = 256.
	e6, err := goldenSimplified(ctx, lib, hist)
	if err != nil {
		return nil, err
	}
	add("e6.simpl_err_256", e6, "e6.simpl_err_worst", "worst simplified-corr σ error, WID-only and WID+D2D, % (§3.1.2)")

	// QMC referee freeze: the dense and FFT sampler moments on the qmc
	// conformance fixture, so the quasi-Monte-Carlo wiring cannot perturb
	// either pseudo-random path without tripping the golden gate.
	qe, err := qmcGoldenEntries(ctx, lib, workers)
	if err != nil {
		return nil, err
	}
	out = append(out, qe...)
	return out, nil
}

// WriteGoldenFile renders the golden file as indented JSON.
func WriteGoldenFile(entries []GoldenEntry) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(goldenFile{Seed: DefaultSeed, Entries: entries}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// baselineHist is the fixture cell mix, reused by the golden shapes.
func baselineHist() (*stats.Histogram, error) {
	return stats.NewHistogram(map[string]float64{
		"INV_X1": 3, "NAND2_X1": 2, "NOR2_X1": 2, "XOR2_X1": 1,
	})
}

// chipCorner is the EXPERIMENTS.md chip-scale process corner.
func chipCorner() *spatial.Process {
	return corner(spatial.TruncatedExpCorr{Lambda: 30, R: 120})
}

func goldenFig2(lib *charlib.Library) (idDev, mcMismatch float64, err error) {
	ca, err := lib.Cell("NAND2_X1")
	if err != nil {
		return 0, 0, err
	}
	cb, err := lib.Cell("NOR2_X1")
	if err != nil {
		return 0, 0, err
	}
	sa, sb := &ca.States[0], &cb.States[0]
	mu, sigma := lib.Process.LNominal, lib.Process.TotalSigma()
	rng := stats.NewRNG(DefaultSeed, "conformance/e2")
	for _, rho := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1} {
		an, err := charlib.LeakageCorr(sa, sb, rho, mu, sigma)
		if err != nil {
			return 0, 0, err
		}
		mc := charlib.MCPairCorr(sa, sb, rho, mu, sigma, 8000, rng)
		idDev = math.Max(idDev, math.Abs(an-rho))
		mcMismatch = math.Max(mcMismatch, math.Abs(an-mc))
	}
	return idDev, mcMismatch, nil
}

func goldenFig6(ctx context.Context, lib *charlib.Library, hist *stats.Histogram, workers int) (float64, error) {
	const side, reps = 16, 3
	n := side * side
	w := float64(side) * placement.DefaultSitePitch
	spec := core.DesignSpec{Hist: hist, N: n, W: w, H: w, SignalProb: 0.5}
	m, err := core.NewModelCtx(ctx, lib, chipCorner(), spec, core.Analytic)
	if err != nil {
		return 0, err
	}
	m.Workers = workers
	est, err := m.EstimateLinearCtx(ctx)
	if err != nil {
		return 0, err
	}
	grid, err := placement.NewGrid(n, placement.DefaultSitePitch, placement.DefaultSitePitch, 1)
	if err != nil {
		return 0, err
	}
	arity := libArity(lib)
	envelope := 0.0
	for rep := 0; rep < reps; rep++ {
		rng := stats.NewRNG(DefaultSeed, fmt.Sprintf("conformance/e4/%d", rep))
		nl, err := netlist.RandomCircuit(rng, fmt.Sprintf("golden-e4-%d", rep), n, 16, hist, arity)
		if err != nil {
			return 0, err
		}
		pl, err := placement.Random(rng, grid, n)
		if err != nil {
			return 0, err
		}
		truth, err := core.TrueStatsCtx(ctx, m, nl, pl)
		if err != nil {
			return 0, err
		}
		envelope = math.Max(envelope, math.Abs(stats.RelErr(truth.Mean, est.Mean)))
		envelope = math.Max(envelope, math.Abs(stats.RelErr(truth.Std, est.Std)))
	}
	return envelope, nil
}

func goldenTable1(ctx context.Context, lib *charlib.Library, workers int) (float64, error) {
	ckt, err := iscas.Build("c432", DefaultSeed, libArity(lib))
	if err != nil {
		return 0, err
	}
	spec, err := core.ExtractSpec(ckt.Netlist, ckt.Placement, 0.5)
	if err != nil {
		return 0, err
	}
	m, err := core.NewModelCtx(ctx, lib, chipCorner(), spec, core.Analytic)
	if err != nil {
		return 0, err
	}
	m.Workers = workers
	truth, err := core.TrueStatsCtx(ctx, m, ckt.Netlist, ckt.Placement)
	if err != nil {
		return 0, err
	}
	est, err := m.EstimateLinearCtx(ctx)
	if err != nil {
		return 0, err
	}
	return math.Abs(stats.RelErr(est.Std, truth.Std)), nil
}

func goldenSimplified(ctx context.Context, lib *charlib.Library, hist *stats.Histogram) (float64, error) {
	const side = 16
	n := side * side
	w := float64(side) * placement.DefaultSitePitch
	spec := core.DesignSpec{Hist: hist, N: n, W: w, H: w, SignalProb: 0.5}
	worst := 0.0
	base := chipCorner()
	for _, wid := range []bool{true, false} {
		proc := base
		if wid {
			proc = base.AllWID()
		}
		exact, err := core.NewModelCtx(ctx, lib, proc, spec, core.Analytic)
		if err != nil {
			return 0, err
		}
		simplified, err := core.NewModelCtx(ctx, lib, proc, spec, core.AnalyticSimplified)
		if err != nil {
			return 0, err
		}
		e, err := exact.EstimateLinearCtx(ctx)
		if err != nil {
			return 0, err
		}
		s, err := simplified.EstimateLinearCtx(ctx)
		if err != nil {
			return 0, err
		}
		worst = math.Max(worst, math.Abs(stats.RelErr(s.Std, e.Std)))
	}
	return worst, nil
}
