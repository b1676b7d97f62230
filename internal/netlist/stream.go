package netlist

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"

	"leakest/internal/lkerr"
	"leakest/internal/placement"
)

// The leakest-stream format is the streaming placed-netlist interchange of
// DESIGN.md §16: gate records are grouped by tile, in tile-index order, so
// a reader can process million-gate designs holding only O(largest tile) +
// O(T²) state instead of materializing the placement. The format is
// line-oriented:
//
//	leakest-stream v1
//	design <name> rows=R cols=C sitew=W siteh=H tiles=T gates=N
//	tile 0
//	g <TYPE> <ROW> <COL>
//	...
//	tile 1
//	...
//	end
//
// Tile indices refer to the row-major placement.Partition of the R×C site
// grid into a T×T arrangement and must be strictly increasing; every gate
// record must fall inside the current tile, each site may carry at most one
// gate, and the terminal "end" record guards against truncation. Blank
// lines and #-comments are permitted. All structural violations surface as
// typed lkerr.InvalidInput errors — never panics — which FuzzScanPlaced
// enforces.

// StreamMagic is the fixed first line of a leakest-stream file.
const StreamMagic = "leakest-stream v1"

// StreamHeader is the design line of a leakest-stream file.
type StreamHeader struct {
	Name         string
	Rows, Cols   int
	SiteW, SiteH float64
	// Tiles is the requested tiles-per-side T; the effective partition is
	// placement.Partition(grid, Tiles), which clamps per dimension.
	Tiles int
	// Gates is the declared gate count; ScanPlaced verifies the stream
	// carries exactly this many records.
	Gates int
}

// Grid returns the placement site grid the header describes.
func (h StreamHeader) Grid() placement.Grid {
	return placement.Grid{Rows: h.Rows, Cols: h.Cols, SiteW: h.SiteW, SiteH: h.SiteH}
}

// StreamVisitor receives a stream's contents in tile order. Any nil
// callback is skipped; any error returned aborts the scan. The cellType
// slice passed to Gate aliases the scanner's buffer and is only valid for
// the duration of the call — look it up with m[string(cellType)] (which Go
// compiles without an allocation) or copy it.
type StreamVisitor struct {
	Design    func(h StreamHeader) error
	TileStart func(index int, tile placement.Tile) error
	Gate      func(tileIndex int, cellType []byte, row, col int) error
}

// ScanPlaced reads a leakest-stream design, validating structure as it
// goes: magic line, header sanity, strictly increasing in-range tile
// records, gates inside their tile with no duplicate sites, a matching
// total gate count, and the terminal end record. Peak memory is one bitset
// over the largest tile plus the scanner buffer, independent of the gate
// count.
func ScanPlaced(r io.Reader, v StreamVisitor) (StreamHeader, error) {
	const op = "netlist.ScanPlaced"
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	next := func() ([]byte, bool) {
		for sc.Scan() {
			lineNo++
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 || line[0] == '#' {
				continue
			}
			return line, true
		}
		return nil, false
	}

	line, ok := next()
	if !ok || string(line) != StreamMagic {
		return StreamHeader{}, lkerr.New(lkerr.InvalidInput, op,
			"line %d: not a leakest-stream file (want %q first)", lineNo, StreamMagic)
	}
	line, ok = next()
	if !ok {
		return StreamHeader{}, lkerr.New(lkerr.InvalidInput, op, "truncated: missing design line")
	}
	hdr, err := parseDesignLine(line, lineNo)
	if err != nil {
		return StreamHeader{}, err
	}
	if v.Design != nil {
		if err := v.Design(hdr); err != nil {
			return hdr, err
		}
	}

	parts := placement.Partition(hdr.Grid(), hdr.Tiles)
	maxSites := 0
	for _, t := range parts {
		if t.Sites() > maxSites {
			maxSites = t.Sites()
		}
	}
	seen := make([]uint64, (maxSites+63)/64)
	curTile := -1
	var tile placement.Tile
	tileCols := 0
	gatesSeen := 0
	ended := false

	for {
		line, ok = next()
		if !ok {
			break
		}
		if ended {
			return hdr, lkerr.New(lkerr.InvalidInput, op, "line %d: record after end", lineNo)
		}
		switch {
		case len(line) > 2 && line[0] == 'g' && line[1] == ' ':
			if curTile < 0 {
				return hdr, lkerr.New(lkerr.InvalidInput, op,
					"line %d: gate record before the first tile record", lineNo)
			}
			typ, row, col, ok := parseGateLine(line[2:])
			if !ok {
				return hdr, lkerr.New(lkerr.InvalidInput, op,
					"line %d: malformed gate record %q", lineNo, line)
			}
			if !tile.Contains(row, col) {
				return hdr, lkerr.New(lkerr.InvalidInput, op,
					"line %d: gate at (%d,%d) outside tile %d rows [%d,%d) cols [%d,%d)",
					lineNo, row, col, curTile, tile.Row0, tile.Row1, tile.Col0, tile.Col1)
			}
			local := (row-tile.Row0)*tileCols + (col - tile.Col0)
			if seen[local/64]&(1<<(local%64)) != 0 {
				return hdr, lkerr.New(lkerr.InvalidInput, op,
					"line %d: duplicate gate at site (%d,%d) in tile %d", lineNo, row, col, curTile)
			}
			seen[local/64] |= 1 << (local % 64)
			gatesSeen++
			if gatesSeen > hdr.Gates {
				return hdr, lkerr.New(lkerr.InvalidInput, op,
					"line %d: more gate records than the declared %d", lineNo, hdr.Gates)
			}
			if v.Gate != nil {
				if err := v.Gate(curTile, typ, row, col); err != nil {
					return hdr, err
				}
			}
		case bytes.HasPrefix(line, []byte("tile ")):
			idx, ok := parseIntBytes(bytes.TrimSpace(line[5:]))
			if !ok {
				return hdr, lkerr.New(lkerr.InvalidInput, op,
					"line %d: malformed tile record %q", lineNo, line)
			}
			if idx >= len(parts) {
				return hdr, lkerr.New(lkerr.InvalidInput, op,
					"line %d: tile %d out of range (partition has %d tiles)", lineNo, idx, len(parts))
			}
			if idx <= curTile {
				return hdr, lkerr.New(lkerr.InvalidInput, op,
					"line %d: tile %d out of order after tile %d (indices must strictly increase)",
					lineNo, idx, curTile)
			}
			curTile = idx
			tile = parts[idx]
			tileCols = tile.Cols()
			for i := range seen {
				seen[i] = 0
			}
			if v.TileStart != nil {
				if err := v.TileStart(idx, tile); err != nil {
					return hdr, err
				}
			}
		case string(line) == "end":
			ended = true
		default:
			return hdr, lkerr.New(lkerr.InvalidInput, op,
				"line %d: unrecognized record %q", lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return hdr, lkerr.Wrap(lkerr.InvalidInput, op, err)
	}
	if !ended {
		return hdr, lkerr.New(lkerr.InvalidInput, op,
			"truncated after line %d: missing end record", lineNo)
	}
	if gatesSeen != hdr.Gates {
		return hdr, lkerr.New(lkerr.InvalidInput, op,
			"stream carries %d gates, header declares %d", gatesSeen, hdr.Gates)
	}
	return hdr, nil
}

// parseDesignLine parses and validates the design header record.
func parseDesignLine(line []byte, lineNo int) (StreamHeader, error) {
	const op = "netlist.ScanPlaced"
	bad := func(format string, args ...any) (StreamHeader, error) {
		return StreamHeader{}, lkerr.New(lkerr.InvalidInput, op,
			"line %d: %s", lineNo, fmt.Sprintf(format, args...))
	}
	fields := bytes.Fields(line)
	if len(fields) != 8 || string(fields[0]) != "design" {
		return bad("malformed design line %q (want design <name> rows= cols= sitew= siteh= tiles= gates=)", line)
	}
	hdr := StreamHeader{Name: string(fields[1])}
	intField := func(f []byte, key string) (int, bool) {
		rest, ok := bytes.CutPrefix(f, []byte(key+"="))
		if !ok {
			return 0, false
		}
		return parseIntBytesOK(rest)
	}
	floatField := func(f []byte, key string) (float64, bool) {
		rest, ok := bytes.CutPrefix(f, []byte(key+"="))
		if !ok {
			return 0, false
		}
		v, err := strconv.ParseFloat(string(rest), 64)
		return v, err == nil
	}
	var ok bool
	if hdr.Rows, ok = intField(fields[2], "rows"); !ok {
		return bad("bad rows field %q", fields[2])
	}
	if hdr.Cols, ok = intField(fields[3], "cols"); !ok {
		return bad("bad cols field %q", fields[3])
	}
	if hdr.SiteW, ok = floatField(fields[4], "sitew"); !ok {
		return bad("bad sitew field %q", fields[4])
	}
	if hdr.SiteH, ok = floatField(fields[5], "siteh"); !ok {
		return bad("bad siteh field %q", fields[5])
	}
	if hdr.Tiles, ok = intField(fields[6], "tiles"); !ok {
		return bad("bad tiles field %q", fields[6])
	}
	if hdr.Gates, ok = intField(fields[7], "gates"); !ok {
		return bad("bad gates field %q", fields[7])
	}
	if hdr.Rows < 1 || hdr.Cols < 1 {
		return bad("grid %d×%d must be at least 1×1", hdr.Rows, hdr.Cols)
	}
	if !(hdr.SiteW > 0) || !(hdr.SiteH > 0) ||
		math.IsInf(hdr.SiteW, 0) || math.IsInf(hdr.SiteH, 0) {
		return bad("site pitch %g×%g must be positive and finite", hdr.SiteW, hdr.SiteH)
	}
	if hdr.Tiles < 1 {
		return bad("tiles=%d must be ≥ 1", hdr.Tiles)
	}
	if hdr.Gates < 0 || hdr.Gates > hdr.Rows*hdr.Cols {
		return bad("gates=%d outside [0, %d sites]", hdr.Gates, hdr.Rows*hdr.Cols)
	}
	return hdr, nil
}

// parseGateLine splits "<TYPE> <ROW> <COL>" without allocating; the type
// slice aliases the input.
func parseGateLine(b []byte) (typ []byte, row, col int, ok bool) {
	sp1 := bytes.IndexByte(b, ' ')
	if sp1 <= 0 {
		return nil, 0, 0, false
	}
	typ = b[:sp1]
	rest := b[sp1+1:]
	sp2 := bytes.IndexByte(rest, ' ')
	if sp2 <= 0 {
		return nil, 0, 0, false
	}
	row, ok = parseIntBytes(rest[:sp2])
	if !ok {
		return nil, 0, 0, false
	}
	col, ok = parseIntBytes(rest[sp2+1:])
	if !ok {
		return nil, 0, 0, false
	}
	return typ, row, col, true
}

// parseIntBytes parses a non-negative decimal integer without allocating.
func parseIntBytes(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// parseIntBytesOK is parseIntBytes returning through the (int, bool) pair
// shape the header field helpers expect.
func parseIntBytesOK(b []byte) (int, bool) { return parseIntBytes(b) }

// WritePlaced renders a placed netlist in leakest-stream format, grouping
// gates by the T×T tile partition in tile-index order. It is the stream
// writer's door for a placed design, so the placement is checked here. The
// writer holds a site→gate inverse of the placement (O(sites)); it is the
// reader that carries the O(tile) memory guarantee.
func WritePlaced(w io.Writer, nl *Netlist, pl *placement.Placement, tiles int) error {
	if err := pl.Validate(len(nl.Gates)); err != nil {
		return lkerr.Wrap(lkerr.InvalidInput, "netlist.WritePlaced", err)
	}
	grid := pl.Grid
	siteGate := make([]int, grid.Sites())
	for i := range siteGate {
		siteGate[i] = -1
	}
	for g, s := range pl.Site {
		siteGate[s] = g
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	fmt.Fprintf(bw, "%s\ndesign %s rows=%d cols=%d sitew=%g siteh=%g tiles=%d gates=%d\n",
		StreamMagic, nl.Name, grid.Rows, grid.Cols, grid.SiteW, grid.SiteH, tiles, len(nl.Gates))
	parts := placement.Partition(grid, tiles)
	var buf []byte
	for idx, t := range parts {
		fmt.Fprintf(bw, "tile %d\n", idx)
		for r := t.Row0; r < t.Row1; r++ {
			for c := t.Col0; c < t.Col1; c++ {
				g := siteGate[r*grid.Cols+c]
				if g < 0 {
					continue
				}
				buf = appendGateLine(buf[:0], nl.Gates[g].Type, r, c)
				if _, err := bw.Write(buf); err != nil {
					return err
				}
			}
		}
	}
	if _, err := bw.WriteString("end\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteSyntheticStream streams a synthetic design straight to w without
// materializing a netlist or placement: the first gates sites in tile-order
// traversal are occupied, with cell types assigned round-robin from types.
// This is the generator behind the 10M-gate streaming benchmark.
func WriteSyntheticStream(w io.Writer, name string, rows, cols int, siteW, siteH float64, tiles int, types []string, gates int) error {
	const op = "netlist.WriteSyntheticStream"
	if len(types) == 0 {
		return lkerr.New(lkerr.InvalidInput, op, "no cell types")
	}
	if rows < 1 || cols < 1 || gates < 0 || gates > rows*cols {
		return lkerr.New(lkerr.InvalidInput, op,
			"%d gates do not fit a %d×%d grid", gates, rows, cols)
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	fmt.Fprintf(bw, "%s\ndesign %s rows=%d cols=%d sitew=%g siteh=%g tiles=%d gates=%d\n",
		StreamMagic, name, rows, cols, siteW, siteH, tiles, gates)
	grid := placement.Grid{Rows: rows, Cols: cols, SiteW: siteW, SiteH: siteH}
	parts := placement.Partition(grid, tiles)
	var buf []byte
	left := gates
	g := 0
	for idx, t := range parts {
		if left == 0 {
			break
		}
		buf = append(buf[:0], "tile "...)
		buf = strconv.AppendInt(buf, int64(idx), 10)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
		for r := t.Row0; r < t.Row1 && left > 0; r++ {
			for c := t.Col0; c < t.Col1 && left > 0; c++ {
				buf = appendGateLine(buf[:0], types[g%len(types)], r, c)
				if _, err := bw.Write(buf); err != nil {
					return err
				}
				g++
				left--
			}
		}
	}
	if _, err := bw.WriteString("end\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// appendGateLine renders one "g TYPE ROW COL\n" record into buf.
func appendGateLine(buf []byte, typ string, row, col int) []byte {
	buf = append(buf, 'g', ' ')
	buf = append(buf, typ...)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(row), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(col), 10)
	return append(buf, '\n')
}
