package netlist

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"leakest/internal/lkerr"
	"leakest/internal/placement"
	"leakest/internal/stats"
)

// streamTestDesign builds a small random placed design for round-trip tests.
func streamTestDesign(t testing.TB, n int) (*Netlist, *placement.Placement) {
	hist, err := stats.NewHistogram(map[string]float64{"INV_X1": 2, "NAND2_X1": 3, "NOR2_X1": 1})
	if err != nil {
		t.Fatal(err)
	}
	arity := func(typ string) (int, error) {
		return map[string]int{"INV_X1": 1, "NAND2_X1": 2, "NOR2_X1": 2}[typ], nil
	}
	rng := stats.NewRNG(7, "stream-test")
	nl, err := RandomCircuit(rng, "stream-test", n, 4, hist, arity)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := placement.AutoGrid(n + n/2)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := placement.Random(rng, grid, n)
	if err != nil {
		t.Fatal(err)
	}
	return nl, pl
}

// TestStreamRoundTrip: WritePlaced → ScanPlaced recovers every gate with
// its type and site, grouped by the declared tile partition in tile order.
func TestStreamRoundTrip(t *testing.T) {
	nl, pl := streamTestDesign(t, 60)
	for _, tiles := range []int{1, 3, 7} {
		var buf bytes.Buffer
		if err := WritePlaced(&buf, nl, pl, tiles); err != nil {
			t.Fatalf("tiles=%d: write: %v", tiles, err)
		}
		parts := placement.Partition(pl.Grid, tiles)
		wantBySite := map[int]string{}
		for g, s := range pl.Site {
			wantBySite[s] = nl.Gates[g].Type
		}
		var hdrSeen StreamHeader
		lastTile := -1
		got := 0
		typeCounts := map[string]int{}
		hdr, err := ScanPlaced(bytes.NewReader(buf.Bytes()), StreamVisitor{
			Design: func(h StreamHeader) error { hdrSeen = h; return nil },
			TileStart: func(idx int, tile placement.Tile) error {
				if idx <= lastTile {
					t.Fatalf("tiles=%d: tile %d after %d", tiles, idx, lastTile)
				}
				if tile != parts[idx] {
					t.Fatalf("tiles=%d: tile %d bounds %+v, want %+v", tiles, idx, tile, parts[idx])
				}
				lastTile = idx
				return nil
			},
			Gate: func(ti int, typ []byte, row, col int) error {
				if ti != lastTile {
					t.Fatalf("gate attributed to tile %d during tile %d", ti, lastTile)
				}
				s := row*pl.Grid.Cols + col
				if want, ok := wantBySite[s]; !ok || want != string(typ) {
					t.Fatalf("tiles=%d: site %d carries %q, want %q", tiles, s, typ, want)
				}
				typeCounts[string(typ)]++
				got++
				return nil
			},
		})
		if err != nil {
			t.Fatalf("tiles=%d: scan: %v", tiles, err)
		}
		if hdrSeen != hdr {
			t.Fatalf("Design callback header %+v != returned %+v", hdrSeen, hdr)
		}
		if hdr.Grid() != pl.Grid || hdr.Gates != len(nl.Gates) || hdr.Tiles != tiles || hdr.Name != nl.Name {
			t.Fatalf("tiles=%d: header %+v does not match the design", tiles, hdr)
		}
		if got != len(nl.Gates) {
			t.Fatalf("tiles=%d: scanned %d gates, want %d", tiles, got, len(nl.Gates))
		}
		for typ, want := range nl.Counts() {
			if typeCounts[typ] != want {
				t.Fatalf("tiles=%d: %s count %d, want %d", tiles, typ, typeCounts[typ], want)
			}
		}
	}
}

// TestWriteSyntheticStream: the generator fills the first gates sites in
// tile order with round-robin types and its output scans cleanly.
func TestWriteSyntheticStream(t *testing.T) {
	types := []string{"INV_X1", "NAND2_X1"}
	var buf bytes.Buffer
	if err := WriteSyntheticStream(&buf, "syn", 10, 12, 1.5, 2.0, 4, types, 97); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	perTile := map[int]int{}
	hdr, err := ScanPlaced(bytes.NewReader(buf.Bytes()), StreamVisitor{
		Gate: func(ti int, typ []byte, row, col int) error {
			counts[string(typ)]++
			perTile[ti]++
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Gates != 97 || hdr.Rows != 10 || hdr.Cols != 12 || hdr.Tiles != 4 {
		t.Fatalf("header %+v", hdr)
	}
	if counts["INV_X1"] != 49 || counts["NAND2_X1"] != 48 {
		t.Fatalf("round-robin type counts %v", counts)
	}
	total := 0
	for _, c := range perTile {
		total += c
	}
	if total != 97 {
		t.Fatalf("per-tile counts sum %d, want 97", total)
	}
	// Generation must also refuse impossible shapes.
	if err := WriteSyntheticStream(&buf, "syn", 2, 2, 1, 1, 1, types, 5); !lkerr.IsCode(err, lkerr.InvalidInput) {
		t.Fatalf("5 gates on 4 sites: got %v", err)
	}
	if err := WriteSyntheticStream(&buf, "syn", 2, 2, 1, 1, 1, nil, 1); !lkerr.IsCode(err, lkerr.InvalidInput) {
		t.Fatalf("no types: got %v", err)
	}
}

// TestScanPlacedErrors: every structural violation is a typed InvalidInput
// error mentioning the offending construct.
func TestScanPlacedErrors(t *testing.T) {
	head := StreamMagic + "\ndesign d rows=4 cols=4 sitew=1 siteh=1 tiles=2 gates=2\n"
	cases := map[string]struct {
		in   string
		want string
	}{
		"bad-magic":      {"leakest-stream v9\n", "not a leakest-stream"},
		"no-design":      {StreamMagic + "\n", "missing design line"},
		"bad-design":     {StreamMagic + "\ndesign d rows=4\n", "malformed design line"},
		"bad-rows":       {StreamMagic + "\ndesign d rows=x cols=4 sitew=1 siteh=1 tiles=2 gates=2\n", "bad rows"},
		"zero-grid":      {StreamMagic + "\ndesign d rows=0 cols=4 sitew=1 siteh=1 tiles=2 gates=2\n", "at least 1×1"},
		"bad-pitch":      {StreamMagic + "\ndesign d rows=4 cols=4 sitew=0 siteh=1 tiles=2 gates=2\n", "positive and finite"},
		"zero-tiles":     {StreamMagic + "\ndesign d rows=4 cols=4 sitew=1 siteh=1 tiles=0 gates=2\n", "must be ≥ 1"},
		"gates-over":     {StreamMagic + "\ndesign d rows=4 cols=4 sitew=1 siteh=1 tiles=2 gates=17\n", "outside [0, 16 sites]"},
		"truncated":      {head + "tile 0\ng INV_X1 0 0\n", "missing end"},
		"gate-first":     {head + "g INV_X1 0 0\n", "before the first tile"},
		"tile-range":     {head + "tile 4\n", "out of range"},
		"tile-order":     {head + "tile 1\ng INV_X1 0 2\ntile 0\n", "out of order"},
		"tile-repeat":    {head + "tile 0\ntile 0\n", "out of order"},
		"outside-tile":   {head + "tile 0\ng INV_X1 0 3\n", "outside tile"},
		"duplicate-site": {head + "tile 0\ng INV_X1 1 1\ng NAND2_X1 1 1\n", "duplicate gate"},
		"count-mismatch": {head + "tile 0\ng INV_X1 0 0\nend\n", "header declares 2"},
		"count-over":     {head + "tile 0\ng A 0 0\ng B 0 1\ng C 1 0\n", "more gate records"},
		"after-end":      {head + "tile 0\ng A 0 0\ng B 0 1\nend\ntile 1\n", "after end"},
		"malformed-gate": {head + "tile 0\ng INV_X1 zero 0\n", "malformed gate record"},
		"unknown-record": {head + "tile 0\nblob 12\n", "unrecognized record"},
		"malformed-tile": {head + "tile x\n", "malformed tile record"},
	}
	for name, tc := range cases {
		_, err := ScanPlaced(strings.NewReader(tc.in), StreamVisitor{})
		if !lkerr.IsCode(err, lkerr.InvalidInput) {
			t.Errorf("%s: got %v, want InvalidInput", name, err)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
	// Comments and blank lines are fine, and a duplicate site in a *different*
	// tile is a distinct site and must pass.
	ok := head + "# a comment\n\ntile 0\ng A 0 0\n# inner\ntile 3\ng A 2 2\nend\n"
	if _, err := ScanPlaced(strings.NewReader(ok), StreamVisitor{}); err != nil {
		t.Errorf("valid stream rejected: %v", err)
	}
}

// TestWritePlacedRejectsInvalidPlacement: WritePlaced is the stream
// writer's door for a placed design, so a site past the grid, a negative
// site, a shared site and a short placement are each a typed InvalidInput
// before any byte is written.
func TestWritePlacedRejectsInvalidPlacement(t *testing.T) {
	nl, pl := streamTestDesign(t, 20)
	edit := func(f func(site []int) []int) *placement.Placement {
		return &placement.Placement{Grid: pl.Grid, Site: f(append([]int(nil), pl.Site...))}
	}
	for name, bad := range map[string]*placement.Placement{
		"site past the grid": edit(func(s []int) []int { s[3] = pl.Grid.Sites() + 7; return s }),
		"negative site":      edit(func(s []int) []int { s[3] = -1; return s }),
		"shared site":        edit(func(s []int) []int { s[3] = s[1]; return s }),
		"short placement":    edit(func(s []int) []int { return s[:len(s)-1] }),
	} {
		var buf bytes.Buffer
		err := WritePlaced(&buf, nl, bad, 2)
		if !lkerr.IsCode(err, lkerr.InvalidInput) || !strings.Contains(err.Error(), "netlist.WritePlaced") {
			t.Errorf("%s: got %v, want InvalidInput at netlist.WritePlaced", name, err)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: %d bytes written before the refusal", name, buf.Len())
		}
	}
}

// TestScanPlacedVisitorAbort: a visitor error stops the scan and surfaces
// unchanged.
func TestScanPlacedVisitorAbort(t *testing.T) {
	nl, pl := streamTestDesign(t, 20)
	var buf bytes.Buffer
	if err := WritePlaced(&buf, nl, pl, 2); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("stop here")
	calls := 0
	_, err := ScanPlaced(bytes.NewReader(buf.Bytes()), StreamVisitor{
		Gate: func(int, []byte, int, int) error {
			calls++
			if calls == 3 {
				return sentinel
			}
			return nil
		},
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want the visitor's error", err)
	}
	if calls != 3 {
		t.Fatalf("scan continued after the visitor error (%d calls)", calls)
	}
}

// FuzzScanPlaced asserts the stream parser is total: arbitrary bytes either
// scan cleanly or fail with a typed InvalidInput error — never a panic —
// and a clean scan satisfies the format's own invariants.
func FuzzScanPlaced(f *testing.F) {
	head := StreamMagic + "\ndesign d rows=6 cols=6 sitew=1.5 siteh=2 tiles=2 gates=3\n"
	var syn bytes.Buffer
	if err := WriteSyntheticStream(&syn, "seed", 8, 8, 1, 1, 3, []string{"INV_X1", "NOR2_X1"}, 40); err != nil {
		f.Fatal(err)
	}
	seeds := []string{
		"",
		StreamMagic + "\n",
		head + "tile 0\ng INV_X1 0 0\ng NAND2_X1 1 2\ntile 3\ng NOR2_X1 3 3\nend\n",
		syn.String(),
		// Truncations at various depths.
		head,
		head + "tile 0\ng INV_X1 0 0\n",
		head + "tile 0\ng INV_X1 0 0\ng NAND2_X1 1 2\ntile 3\ng NOR2_X1 3 3\n",
		// Out-of-order and repeated tiles.
		head + "tile 3\ng A 3 3\ntile 0\n",
		head + "tile 1\ntile 1\n",
		// Duplicate site, out-of-tile gate, count mismatch.
		head + "tile 0\ng A 0 0\ng B 0 0\n",
		head + "tile 0\ng A 5 5\n",
		head + "tile 0\ng A 0 0\nend\n",
		// Header damage.
		"leakest-stream v2\ndesign d rows=6 cols=6 sitew=1.5 siteh=2 tiles=2 gates=3\n",
		StreamMagic + "\ndesign d rows=-1 cols=6 sitew=1.5 siteh=2 tiles=2 gates=3\n",
		StreamMagic + "\ndesign d rows=6 cols=6 sitew=nan siteh=2 tiles=2 gates=3\n",
		StreamMagic + "\ndesign d rows=99999999999999999999 cols=6 sitew=1 siteh=1 tiles=2 gates=3\n",
		head + "g stray 0 0\n",
		head + "\x00\xff\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		gates := 0
		lastTile := -1
		hdr, err := ScanPlaced(bytes.NewReader(data), StreamVisitor{
			TileStart: func(idx int, tile placement.Tile) error {
				if idx <= lastTile {
					t.Fatalf("tile %d delivered after %d", idx, lastTile)
				}
				if tile.Sites() <= 0 {
					t.Fatalf("tile %d is empty: %+v", idx, tile)
				}
				lastTile = idx
				return nil
			},
			Gate: func(ti int, typ []byte, row, col int) error {
				if ti != lastTile {
					t.Fatalf("gate in tile %d delivered during tile %d", ti, lastTile)
				}
				if len(typ) == 0 {
					t.Fatal("empty gate type delivered")
				}
				gates++
				return nil
			},
		})
		if err != nil {
			if !lkerr.IsCode(err, lkerr.InvalidInput) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if gates != hdr.Gates {
			t.Fatalf("clean scan delivered %d gates, header declares %d", gates, hdr.Gates)
		}
	})
}
