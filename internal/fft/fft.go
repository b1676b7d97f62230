// Package fft is a dependency-free iterative radix-2 fast Fourier
// transform used by the circulant-embedding Monte-Carlo sampler
// (internal/randvar): 1-D complex and real transforms plus one cache-blocked
// 2-D entry point, Transform2DInto, over row-major buffers.
//
// The 2-D transform computes only a caller-named top-left corner: the
// sampler reads a Rows×Cols grid out of a torus at least twice as large
// per axis. Kept outputs are bitwise those of the full transform, because
// each runs exactly the full transform's butterfly sequence; outputs
// outside the corner are unspecified after the call.
//
// Transforms are unnormalized in both directions — Forward computes
// X[k] = Σ_j x[j]·e^(−2πi·jk/N) and the inverse uses the conjugated kernel
// without the 1/N factor — so that round-tripping scales by N and callers
// fold the normalization into whatever per-point factor they already apply
// (the sampler bakes 1/(M·N) into its eigenvalue scale).
package fft

import (
	"fmt"
	"math"
	"math/cmplx"
)

// NextPow2 returns the smallest power of two ≥ n (and 1 for n ≤ 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Transform computes the in-place DFT of x (forward for inverse=false,
// conjugated kernel for inverse=true; both unnormalized). len(x) must be a
// power of two.
func Transform(x []complex128, inverse bool) error {
	n := len(x)
	if !IsPow2(n) {
		return fmt.Errorf("fft: length %d is not a power of two", n)
	}
	bitReverse(x)
	butterflies(x, inverse, n)
	return nil
}

// bitReverse applies the bit-reversal permutation that precedes the
// in-place decimation-in-time butterflies. len(x) must be a power of two.
func bitReverse(x []complex128) {
	n := len(x)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
}

// butterflies runs the iterative Cooley–Tukey stages over the bit-reversed
// x, computing only outputs x[:keep]. Outputs k and k+L/2 of a length-L
// block read only output k of each of its two half-blocks, so a stage whose
// blocks are longer than keep needs just each block's first keep outputs:
// butterfly k writes its low output while k < keep and its high output
// while k+L/2 < keep. Every computed value runs the exact arithmetic
// of the full transform — the twiddle advances by the same unit rotation
// from k = 0 — so x[:keep] is bitwise the full transform's and x[keep:] is
// unspecified. keep = len(x) is the full transform. The accumulated
// twiddle rotation error over the longest span is O(length·ε), far below
// the sampler's tolerance.
func butterflies(x []complex128, inverse bool, keep int) {
	n := len(x)
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length)
		if !inverse {
			ang = -ang
		}
		wl := cmplx.Rect(1, ang)
		half := length >> 1
		// Butterflies [0, both) write both outputs; [both, low) only the
		// low one.
		both, low := half, half
		if keep < length {
			both, low = max(keep-half, 0), min(keep, half)
		}
		for start := 0; start < n; start += length {
			lo := x[start : start+half]
			hi := x[start+half : start+length][:len(lo)]
			w := complex(1, 0)
			k := 0
			for ; k < both; k++ {
				u := lo[k]
				v := hi[k] * w
				lo[k] = u + v
				hi[k] = u - v
				w *= wl
			}
			for ; k < low; k++ {
				u := lo[k]
				v := hi[k] * w
				lo[k] = u + v
				w *= wl
			}
		}
	}
}

// TransformReal computes the forward DFT of the real sequence src into the
// full length-N complex spectrum dst (conjugate-symmetric: dst[N−k] =
// conj(dst[k])) via one half-size complex transform. len(dst) must equal
// len(src), a power of two.
func TransformReal(dst []complex128, src []float64) error {
	n := len(src)
	if len(dst) != n {
		return fmt.Errorf("fft: real transform dst length %d != src length %d", len(dst), n)
	}
	if !IsPow2(n) {
		return fmt.Errorf("fft: length %d is not a power of two", n)
	}
	if n == 1 {
		dst[0] = complex(src[0], 0)
		return nil
	}
	// Pack even/odd samples into a half-size complex sequence, transform,
	// then split the spectrum into even/odd parts E and O with
	// X[k] = E[k] + e^(−2πik/N)·O[k].
	h := n / 2
	z := make([]complex128, h)
	for k := 0; k < h; k++ {
		z[k] = complex(src[2*k], src[2*k+1])
	}
	if err := Transform(z, false); err != nil {
		return err
	}
	dst[0] = complex(real(z[0])+imag(z[0]), 0)
	dst[h] = complex(real(z[0])-imag(z[0]), 0)
	for k := 1; k < h; k++ {
		zk, zm := z[k], cmplx.Conj(z[h-k])
		e := (zk + zm) / 2
		o := (zk - zm) / complex(0, 2)
		dst[k] = e + cmplx.Rect(1, -2*math.Pi*float64(k)/float64(n))*o
	}
	for k := 1; k < h; k++ {
		dst[n-k] = cmplx.Conj(dst[k])
	}
	return nil
}

// colBlock is the number of columns gathered per pass of the column
// transforms: 16 complex128s span 256 contiguous bytes per row, so the
// strided gather still reads whole cache lines.
const colBlock = 16

// Scratch2DLen returns the scratch length Transform2DInto requires for
// a rows×cols transform.
func Scratch2DLen(rows, cols int) int {
	b := colBlock
	if cols < b {
		b = cols
	}
	return rows * b
}

// Transform2DInto computes the in-place 2-D DFT of the row-major rows×cols
// buffer x, keeping only its top-left keepRows×keepCols corner: after the
// call the corner holds bitwise the values of the full transform, and every
// point outside it is unspecified. keepRows = rows, keepCols = cols is the
// full transform.
//
// The row pass transforms every row (each column transform reads all rows)
// but computes only outputs < keepCols; the column pass gathers, transforms
// and scatters only columns < keepCols, computing and writing back only
// rows < keepRows. The circulant-embedding sampler reads a Rows×Cols corner
// of a torus at least twice as wide and tall, so the pruning skips about
// half of the column pass and the last butterfly stages' unread halves.
// scratch needs Scratch2DLen(rows, cols) elements, so per-trial callers
// stay allocation-free.
func Transform2DInto(x []complex128, rows, cols, keepRows, keepCols int, inverse bool, scratch []complex128) error {
	if len(x) != rows*cols {
		return fmt.Errorf("fft: buffer length %d != %d×%d", len(x), rows, cols)
	}
	if !IsPow2(rows) || !IsPow2(cols) {
		return fmt.Errorf("fft: dimensions %d×%d are not powers of two", rows, cols)
	}
	if keepRows < 1 || keepRows > rows || keepCols < 1 || keepCols > cols {
		return fmt.Errorf("fft: kept corner %d×%d outside the %d×%d transform", keepRows, keepCols, rows, cols)
	}
	if need := Scratch2DLen(rows, cols); len(scratch) < need {
		return fmt.Errorf("fft: scratch length %d < required %d", len(scratch), need)
	}
	for r := 0; r < rows; r++ {
		row := x[r*cols : (r+1)*cols]
		bitReverse(row)
		butterflies(row, inverse, keepCols)
	}
	if rows == 1 {
		return nil
	}
	// Columns in blocks: gather colBlock adjacent kept columns into
	// contiguous per-column vectors, transform each, scatter the kept rows
	// back.
	for c0 := 0; c0 < keepCols; c0 += colBlock {
		bc := min(colBlock, keepCols-c0)
		for r := 0; r < rows; r++ {
			row := x[r*cols+c0 : r*cols+c0+bc]
			for j, v := range row {
				scratch[j*rows+r] = v
			}
		}
		for j := 0; j < bc; j++ {
			col := scratch[j*rows : (j+1)*rows]
			bitReverse(col)
			butterflies(col, inverse, keepRows)
		}
		for r := 0; r < keepRows; r++ {
			row := x[r*cols+c0 : r*cols+c0+bc]
			for j := range row {
				row[j] = scratch[j*rows+r]
			}
		}
	}
	return nil
}
