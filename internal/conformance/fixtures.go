package conformance

import (
	"leakest/internal/charlib"
	"leakest/internal/netlist"
	"leakest/internal/placement"
	"leakest/internal/spatial"
	"leakest/internal/stats"
)

// Fixture is one deterministic verification scenario: a process corner and
// a layout, over which the harness cross-validates every estimation path.
type Fixture struct {
	Name string
	Proc *spatial.Process
	Hist *stats.Histogram
	// Rows × Cols is the full-occupancy RG site grid (N = Rows·Cols,
	// W = Cols·pitch, H = Rows·pitch), so the linear method needs no
	// occupancy scaling and the brute-force reference is exact.
	Rows, Cols int
	SignalProb float64
	// Placed adds the placed-circuit checks (O(n²) truth vs an independent
	// serial reference, truth vs the RG estimate); MC adds the chip-level
	// Monte-Carlo cross-validation. Both only make sense on square grids.
	Placed, MC bool
	// IntErrBoundPct bounds the |integral-2d vs linear| σ error (percent).
	// Zero selects the E7 recorded envelope at N; fixtures off the E7
	// corner (non-paper λ/pitch ratios, extreme aspect, n = 1) carry an
	// explicit measured bound instead.
	IntErrBoundPct float64
}

// N returns the gate count.
func (f Fixture) N() int { return f.Rows * f.Cols }

// corner builds a process with the shared-library sigma split (so the
// cached characterization stays valid) and the given WID correlation.
func corner(wid spatial.CorrFunc) *spatial.Process {
	base := spatial.Default90nm()
	return &spatial.Process{
		LNominal: base.LNominal,
		SigmaD2D: base.SigmaD2D,
		SigmaWID: base.SigmaWID,
		SigmaVt:  base.SigmaVt,
		WIDCorr:  wid,
	}
}

// allD2D puts the entire budget in the die-to-die term: no within-die
// correlation function at all (ρ_total ≡ 1).
func allD2D() *spatial.Process {
	base := spatial.Default90nm()
	return &spatial.Process{
		LNominal: base.LNominal,
		SigmaD2D: base.TotalSigma(),
		SigmaVt:  base.SigmaVt,
	}
}

// allWID puts the entire budget in the within-die term.
func allWID(wid spatial.CorrFunc) *spatial.Process {
	base := spatial.Default90nm()
	return &spatial.Process{
		LNominal: base.LNominal,
		SigmaWID: base.TotalSigma(),
		SigmaVt:  base.SigmaVt,
		WIDCorr:  wid,
	}
}

// Fixtures returns the deterministic fixture set. Short trims the square
// sides; the scenarios themselves are identical in both modes.
func Fixtures(short bool) ([]Fixture, error) {
	mixed, err := stats.NewHistogram(map[string]float64{
		"INV_X1": 3, "NAND2_X1": 2, "NOR2_X1": 2, "XOR2_X1": 1,
	})
	if err != nil {
		return nil, err
	}
	single, err := stats.NewHistogram(map[string]float64{"NAND2_X1": 1})
	if err != nil {
		return nil, err
	}
	oneInv, err := stats.NewHistogram(map[string]float64{"INV_X1": 1})
	if err != nil {
		return nil, err
	}
	side := 24
	if short {
		side = 16
	}
	// Chip-scale within-die correlation (the EXPERIMENTS.md process), whose
	// range exceeds the die, and a tight one whose hard range fits even the
	// short die, so the polar weight is exercised on both of its branches.
	chip := spatial.TruncatedExpCorr{Lambda: 30, R: 120}
	tight := spatial.TruncatedExpCorr{Lambda: 6, R: 24}

	return []Fixture{
		{
			// The paper's own corner: mixed cells, chip-scale correlation,
			// square die. Carries the placed-circuit truth checks and the
			// Monte-Carlo cross-validation.
			Name: "baseline", Proc: corner(chip), Hist: mixed,
			Rows: side, Cols: side, SignalProb: 0.5,
			Placed: true, MC: true,
			// Off the E7 corner (different mix and signal probability than
			// the paper sweep): measured ≈2.4 % at the short side, bounded
			// with ~3× margin.
			IntErrBoundPct: 7,
		},
		{
			// Extreme λ/R ratio, small side: correlation dies within three
			// site pitches, inside the die. The λ/pitch ratio is
			// far off the E7 corner, so the integral bound is the measured
			// envelope of this fixture (site granularity dominates).
			Name: "tight-corr", Proc: corner(tight), Hist: mixed,
			Rows: side, Cols: side, SignalProb: 0.3,
			IntErrBoundPct: 30,
		},
		{
			// Degenerate 1×1 layout: one gate, one site. The continuum
			// integral is meaningless at n = 1 (Fig. 7's left edge grows
			// without bound), so only its finiteness is enveloped.
			Name: "one-gate", Proc: corner(chip), Hist: oneInv,
			Rows: 1, Cols: 1, SignalProb: 0.5,
			IntErrBoundPct: 80,
		},
		{
			// Single-cell histogram: no cell-mixing in the RG variable.
			Name: "single-cell", Proc: corner(chip), Hist: single,
			Rows: 12, Cols: 12, SignalProb: 0.5,
			IntErrBoundPct: 10,
		},
		{
			// All-D2D split: ρ_total ≡ 1, no within-die function at all.
			// Polar degenerates to the covariance floor (Dmax = 0) and must
			// agree with the 2-D integral almost exactly.
			Name: "all-d2d", Proc: allD2D(), Hist: mixed,
			Rows: 12, Cols: 12, SignalProb: 0.5,
			IntErrBoundPct: 5,
		},
		{
			// All-WID split with the tight range: no covariance floor.
			Name: "all-wid", Proc: allWID(tight), Hist: mixed,
			Rows: side, Cols: side, SignalProb: 0.5,
			IntErrBoundPct: 30,
		},
		{
			// λ/R far beyond the die diagonal: the near-constant covariance
			// makes the 2-D integral nearly exact.
			Name: "wide-corr", Proc: corner(spatial.TruncatedExpCorr{Lambda: 500, R: 2000}), Hist: mixed,
			Rows: 12, Cols: 12, SignalProb: 0.5,
			IntErrBoundPct: 5,
		},
		{
			// Extreme aspect ratio: 16:1 die, correlation range taller than
			// the short edge, integral error dominated by the narrow
			// dimension.
			Name: "skinny", Proc: corner(tight), Hist: mixed,
			Rows: 4, Cols: 64, SignalProb: 0.5,
			IntErrBoundPct: 30,
		},
	}, nil
}

// mutationFixtures are the fixtures the mutation self-check runs: baseline
// covers the placed truth path, and the two cover both branches of the
// polar weight.
var mutationFixtures = []string{"baseline", "tight-corr"}

// placedCircuit draws the seeded random circuit of a placed fixture from
// the "conformance/<stream>" RNG: n gates with numPI primary inputs drawn
// from hist, on distinct random sites of an n-site grid with the given
// aspect ratio.
func placedCircuit(lib *charlib.Library, seed int64, stream, name string, n, numPI int,
	hist *stats.Histogram, aspect float64) (*netlist.Netlist, *placement.Placement, error) {
	rng := stats.NewRNG(seed, "conformance/"+stream)
	nl, err := netlist.RandomCircuit(rng, name, n, numPI, hist, libArity(lib))
	if err != nil {
		return nil, nil, err
	}
	grid, err := placement.NewGrid(n, placement.DefaultSitePitch, placement.DefaultSitePitch, aspect)
	if err != nil {
		return nil, nil, err
	}
	pl, err := placement.Random(rng, grid, n)
	return nl, pl, err
}

// libArity adapts a characterized library to netlist.CellArity.
func libArity(lib *charlib.Library) netlist.CellArity {
	return func(typ string) (int, error) {
		cc, err := lib.Cell(typ)
		if err != nil {
			return 0, err
		}
		return cc.NumInputs, nil
	}
}
