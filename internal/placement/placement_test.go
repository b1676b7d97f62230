package placement

import (
	"math"
	"testing"
	"testing/quick"

	"leakest/internal/stats"
)

func TestNewGridShape(t *testing.T) {
	g, err := NewGrid(100, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Rows != 10 || g.Cols != 10 {
		t.Errorf("100-site square grid = %dx%d", g.Rows, g.Cols)
	}
	if g.W() != 20 || g.H() != 20 || g.Area() != 400 {
		t.Errorf("geometry wrong: W=%g H=%g A=%g", g.W(), g.H(), g.Area())
	}
	// Wide aspect.
	g, _ = NewGrid(100, 2, 2, 4)
	if g.Cols <= g.Rows {
		t.Errorf("aspect 4 grid not wide: %dx%d", g.Rows, g.Cols)
	}
	if g.Sites() < 100 {
		t.Errorf("grid has too few sites: %d", g.Sites())
	}
}

func TestNewGridErrors(t *testing.T) {
	if _, err := NewGrid(0, 2, 2, 1); err == nil {
		t.Errorf("zero sites accepted")
	}
	if _, err := NewGrid(10, 0, 2, 1); err == nil {
		t.Errorf("zero pitch accepted")
	}
	// Non-positive aspect defaults to square rather than failing.
	g, err := NewGrid(16, 2, 2, -1)
	if err != nil || g.Rows != 4 || g.Cols != 4 {
		t.Errorf("negative aspect: %v %dx%d", err, g.Rows, g.Cols)
	}
}

// Property: grids always cover n with minimal row excess.
func TestNewGridCoversN(t *testing.T) {
	f := func(n uint16) bool {
		num := int(n%5000) + 1
		g, err := NewGrid(num, 2, 2, 1)
		if err != nil {
			return false
		}
		return g.Sites() >= num && g.Sites()-num < g.Cols
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRowMajorPositions(t *testing.T) {
	g, _ := NewGrid(6, 2, 3, 1)
	p, err := RowMajor(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	x, y := p.Pos(0)
	if x != 1 || y != 1.5 {
		t.Errorf("gate 0 at (%g, %g), want (1, 1.5)", x, y)
	}
	// Neighbour in the same row is one pitch away.
	if d := p.Dist(0, 1); d != 2 {
		t.Errorf("horizontal neighbour distance = %g", d)
	}
	// Distances are symmetric and zero on the diagonal.
	if p.Dist(2, 5) != p.Dist(5, 2) || p.Dist(3, 3) != 0 {
		t.Errorf("distance symmetry violated")
	}
}

func TestRandomPlacementDistinctSites(t *testing.T) {
	g, _ := NewGrid(50, 2, 2, 1)
	rng := stats.NewRNG(4, "placement")
	p, err := Random(rng, g, 50)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, s := range p.Site {
		if seen[s] {
			t.Fatalf("site %d assigned twice", s)
		}
		if s < 0 || s >= g.Sites() {
			t.Fatalf("site %d out of range", s)
		}
		seen[s] = true
	}
}

func TestPlacementOverflow(t *testing.T) {
	g, _ := NewGrid(4, 2, 2, 1)
	if _, err := RowMajor(g, 100); err == nil {
		t.Errorf("overfull RowMajor accepted")
	}
	rng := stats.NewRNG(1, "overflow")
	if _, err := Random(rng, g, 100); err == nil {
		t.Errorf("overfull Random accepted")
	}
}

func TestMaxDist(t *testing.T) {
	g, _ := NewGrid(100, 2, 2, 1)
	want := math.Hypot(g.W(), g.H())
	if g.MaxDist() != want {
		t.Errorf("MaxDist = %g, want %g", g.MaxDist(), want)
	}
}

// Property: LagDist of a lag class matches Dist of every site pair in that
// class bitwise at the default (power-of-two) pitch — the invariant that lets
// the distance-class kernel tables reuse per-pair golden values unchanged.
func TestLagDistMatchesPairDist(t *testing.T) {
	g, _ := NewGrid(64, DefaultSitePitch, DefaultSitePitch, 1)
	p, err := RowMajor(g, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		ri, ci := p.RowCol(i)
		for j := 0; j < 64; j++ {
			rj, cj := p.RowCol(j)
			want := p.Dist(i, j)
			if got := g.LagDist(ri-rj, ci-cj); got != want {
				t.Fatalf("LagDist(%d,%d) = %v, Dist(%d,%d) = %v", ri-rj, ci-cj, got, i, j, want)
			}
		}
	}
	// Sign of the lag must not matter.
	if g.LagDist(-3, 5) != g.LagDist(3, -5) {
		t.Error("LagDist not symmetric in lag sign")
	}
}

func TestRowCol(t *testing.T) {
	g := Grid{Rows: 4, Cols: 7, SiteW: 2, SiteH: 2}
	p, err := RowMajor(g, g.Sites())
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Site {
		r, c := p.RowCol(i)
		if r*g.Cols+c != p.Site[i] {
			t.Fatalf("RowCol(%d) = (%d,%d), site %d", i, r, c, p.Site[i])
		}
		x, y := p.Pos(i)
		if cx, cy := g.Center(r, c); x != cx || y != cy {
			t.Fatalf("Pos(%d) = (%g,%g) but Center(%d,%d) = (%g,%g)", i, x, y, r, c, cx, cy)
		}
	}
}

func TestAutoGrid(t *testing.T) {
	g, err := AutoGrid(11236) // 106², the paper's largest Fig. 6 size
	if err != nil {
		t.Fatal(err)
	}
	if g.Rows != 106 || g.Cols != 106 {
		t.Errorf("AutoGrid(11236) = %dx%d, want 106x106", g.Rows, g.Cols)
	}
	if g.SiteW != DefaultSitePitch {
		t.Errorf("pitch = %g", g.SiteW)
	}
}

func TestValidate(t *testing.T) {
	g := Grid{Rows: 3, Cols: 5, SiteW: 1, SiteH: 1}
	p, err := Random(stats.NewRNG(3, "validate"), g, 15)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("full random placement: %v", err)
	}
	for name, site := range map[string][]int{
		"past the grid": {0, 15},
		"negative":      {-1, 2},
		"shared site":   {4, 9, 4},
	} {
		if err := (&Placement{Grid: g, Site: site}).Validate(); err == nil {
			t.Errorf("%s: Validate accepted %v", name, site)
		}
	}
}
