package core

import (
	"errors"
	"math"
	"testing"

	"leakest/internal/lkerr"
	"leakest/internal/netlist"
	"leakest/internal/placement"
	"leakest/internal/stats"
)

// floorplanBlocks builds a two-block test floorplan: a logic block and an
// SRAM-flavoured block, side by side with a gap.
func floorplanBlocks(t *testing.T) []Block {
	t.Helper()
	logic := testHist(t)
	sramHeavy, err := stats.NewHistogram(map[string]float64{
		"SRAM6T": 8, "INV_X1": 1, "NAND2_X1": 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := placement.DefaultSitePitch
	return []Block{
		{
			Name: "logic",
			Spec: DesignSpec{Hist: logic, N: 400, W: 40 * p, H: 10 * p, SignalProb: 0.5},
			X:    0, Y: 0,
		},
		{
			Name: "array",
			Spec: DesignSpec{Hist: sramHeavy, N: 300, W: 30 * p, H: 10 * p, SignalProb: 0.5},
			X:    44 * p, Y: 0,
		},
	}
}

func TestEstimateFloorplanValidation(t *testing.T) {
	lib := testLib(t)
	proc := testProcess()
	blocks := floorplanBlocks(t)
	with := func(edit func([]Block)) []Block {
		b := append([]Block(nil), blocks...)
		edit(b)
		return b
	}
	for _, tc := range []struct {
		name   string
		blocks []Block
	}{
		{"empty floorplan", nil},
		{"negative position", with(func(b []Block) { b[0].X = -1 })},
		{"NaN position", with(func(b []Block) { b[1].X = math.NaN() })},
		{"+Inf position", with(func(b []Block) { b[1].Y = math.Inf(1) })},
		{"overlapping blocks", with(func(b []Block) { b[1].X, b[1].Y = b[0].X+1, b[0].Y })},
		{"invalid block spec", with(func(b []Block) { b[0].Spec.N = 0 })},
	} {
		_, err := EstimateFloorplan(lib, proc, tc.blocks, Analytic)
		if !errors.Is(err, lkerr.ErrInvalidInput) {
			t.Errorf("%s: err = %v, want InvalidInput", tc.name, err)
		}
	}
}

func TestEstimateFloorplanCombines(t *testing.T) {
	lib := testLib(t)
	proc := testProcess()
	blocks := floorplanBlocks(t)
	fp, err := EstimateFloorplan(lib, proc, blocks, Analytic)
	if err != nil {
		t.Fatal(err)
	}
	if len(fp.PerBlock) != 2 {
		t.Fatalf("%d per-block results", len(fp.PerBlock))
	}
	// Mean adds exactly.
	if got := fp.PerBlock[0].Mean + fp.PerBlock[1].Mean; math.Abs(got-fp.Total.Mean)/got > 1e-12 {
		t.Errorf("means don't add: %g vs %g", got, fp.Total.Mean)
	}
	// Variance exceeds the independent-blocks sum (positive inter-block
	// correlation) but stays below the fully correlated bound.
	indep := fp.PerBlock[0].Std*fp.PerBlock[0].Std + fp.PerBlock[1].Std*fp.PerBlock[1].Std
	full := math.Pow(fp.PerBlock[0].Std+fp.PerBlock[1].Std, 2)
	total := fp.Total.Std * fp.Total.Std
	if total < indep {
		t.Errorf("total variance %g below independent sum %g", total, indep)
	}
	if total > full*(1+1e-9) {
		t.Errorf("total variance %g above fully-correlated bound %g", total, full)
	}
	if fp.InterBlockCov <= 0 {
		t.Errorf("inter-block covariance %g not positive", fp.InterBlockCov)
	}
}

func TestEstimateFloorplanDistanceEffect(t *testing.T) {
	// Moving the blocks apart must shrink the inter-block covariance.
	lib := testLib(t)
	proc := testProcess()
	near := floorplanBlocks(t)
	far := floorplanBlocks(t)
	far[1].X = near[1].X + 200 // beyond the 120 µm correlation range
	fpNear, err := EstimateFloorplan(lib, proc, near, Analytic)
	if err != nil {
		t.Fatal(err)
	}
	fpFar, err := EstimateFloorplan(lib, proc, far, Analytic)
	if err != nil {
		t.Fatal(err)
	}
	if !(fpFar.InterBlockCov < fpNear.InterBlockCov) {
		t.Errorf("separation did not reduce inter-block covariance: %g vs %g",
			fpFar.InterBlockCov, fpNear.InterBlockCov)
	}
	// With a D2D floor the covariance never reaches zero.
	if fpFar.InterBlockCov <= 0 {
		t.Errorf("D2D floor lost: %g", fpFar.InterBlockCov)
	}
	// WID-only: beyond the range the covariance must vanish.
	widOnly := proc.AllWID()
	fpWID, err := EstimateFloorplan(lib, widOnly, far, Analytic)
	if err != nil {
		t.Fatal(err)
	}
	if fpWID.InterBlockCov != 0 {
		t.Errorf("beyond-range WID-only covariance = %g, want 0", fpWID.InterBlockCov)
	}
}

// The decisive validation: a synthetic placed design matching the
// floorplan must have true O(n²) statistics close to the floorplan
// estimate.
func TestEstimateFloorplanAgainstTruth(t *testing.T) {
	lib := testLib(t)
	proc := testProcess()
	blocks := floorplanBlocks(t)
	fp, err := EstimateFloorplan(lib, proc, blocks, AnalyticSimplified)
	if err != nil {
		t.Fatal(err)
	}

	// Build a placed design realizing the floorplan: one global site grid
	// covering the bounding box; each block's gates occupy its rectangle.
	pitch := placement.DefaultSitePitch
	globalCols := 74 // covers x ∈ [0, 148]
	globalRows := 10
	grid := placement.Grid{Rows: globalRows, Cols: globalCols, SiteW: pitch, SiteH: pitch}
	byName := map[string]int{}
	for _, cc := range lib.Cells {
		byName[cc.Name] = cc.NumInputs
	}
	arity := func(typ string) (int, error) { return byName[typ], nil }
	combined := &netlist.Netlist{Name: "fp", NumPI: 8}
	var sites []int
	rng := stats.NewRNG(3, "floorplan-truth")
	for _, b := range blocks {
		nl, err := netlist.RandomCircuit(rng, b.Name, b.Spec.N, 8, b.Spec.Hist, arity)
		if err != nil {
			t.Fatal(err)
		}
		// Offset fanins into the combined node space: remap everything to
		// primary inputs (fanin structure is irrelevant to leakage).
		for _, g := range nl.Gates {
			fanins := make([]int, len(g.Fanins))
			for i := range fanins {
				fanins[i] = rng.Intn(combined.NumPI)
			}
			combined.Gates = append(combined.Gates, netlist.Gate{Type: g.Type, Fanins: fanins})
		}
		// Sites: fill the block rectangle row-major.
		colLo := int(b.X / pitch)
		cols := int(b.Spec.W / pitch)
		rows := int(b.Spec.H / pitch)
		count := 0
		for r := 0; r < rows && count < b.Spec.N; r++ {
			for c := 0; c < cols && count < b.Spec.N; c++ {
				sites = append(sites, r*globalCols+colLo+c)
				count++
			}
		}
		if count != b.Spec.N {
			t.Fatalf("block %s: placed %d of %d gates", b.Name, count, b.Spec.N)
		}
	}
	pl := &placement.Placement{Grid: grid, Site: sites}

	// The model for TrueStats needs any valid spec; pair covariances come
	// from the library and mode.
	spec := DesignSpec{Hist: testHist(t), N: len(combined.Gates),
		W: grid.W(), H: grid.H(), SignalProb: 0.5}
	m, err := NewModel(lib, proc, spec, AnalyticSimplified)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := TrueStats(m, combined, pl)
	if err != nil {
		t.Fatal(err)
	}
	meanErr := math.Abs(stats.RelErr(fp.Total.Mean, truth.Mean))
	stdErr := math.Abs(stats.RelErr(fp.Total.Std, truth.Std))
	t.Logf("floorplan: µ=%.4g σ=%.4g | truth: µ=%.4g σ=%.4g (mean %.2f%%, σ %.2f%%)",
		fp.Total.Mean, fp.Total.Std, truth.Mean, truth.Std, meanErr, stdErr)
	// The realized circuit samples the histograms, so a few percent of
	// gate-mix noise is expected on top of tile quantization.
	if meanErr > 6 {
		t.Errorf("floorplan mean error %.2f%%", meanErr)
	}
	if stdErr > 8 {
		t.Errorf("floorplan σ error %.2f%%", stdErr)
	}
}
