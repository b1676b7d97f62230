package placement

// Tile is one rectangle of a T×T die partition, half-open in both
// dimensions: rows [Row0, Row1), columns [Col0, Col1) of the site grid.
type Tile struct {
	Row0, Row1 int
	Col0, Col1 int
}

// Rows returns the tile's row extent.
func (t Tile) Rows() int { return t.Row1 - t.Row0 }

// Cols returns the tile's column extent.
func (t Tile) Cols() int { return t.Col1 - t.Col0 }

// Sites returns the number of sites the tile covers.
func (t Tile) Sites() int { return t.Rows() * t.Cols() }

// Contains reports whether the site at (row, col) falls inside the tile.
func (t Tile) Contains(row, col int) bool {
	return row >= t.Row0 && row < t.Row1 && col >= t.Col0 && col < t.Col1
}

// TileEdges returns the t+1 partition boundaries of a dimension of extent
// dim: edges[i] = i·dim/t, so consecutive tiles differ in size by at most
// one site and the union covers [0, dim) exactly. t is clamped to [1, dim]
// (a dimension cannot be split finer than its site count).
func TileEdges(dim, t int) []int {
	if t < 1 {
		t = 1
	}
	if t > dim {
		t = dim
	}
	edges := make([]int, t+1)
	for i := 0; i <= t; i++ {
		edges[i] = i * dim / t
	}
	return edges
}

// Partition splits the grid into a T×T arrangement of tiles, returned in
// row-major tile order (tile index = tileRow·tilesAcross + tileCol). T is
// clamped per dimension to the site extent, so degenerate grids (1×N, or
// T larger than a side) still partition cleanly; the result covers every
// site exactly once.
func Partition(g Grid, t int) []Tile {
	rowEdges := TileEdges(g.Rows, t)
	colEdges := TileEdges(g.Cols, t)
	tr := len(rowEdges) - 1
	tc := len(colEdges) - 1
	tiles := make([]Tile, 0, tr*tc)
	for r := 0; r < tr; r++ {
		for c := 0; c < tc; c++ {
			tiles = append(tiles, Tile{
				Row0: rowEdges[r], Row1: rowEdges[r+1],
				Col0: colEdges[c], Col1: colEdges[c+1],
			})
		}
	}
	return tiles
}
