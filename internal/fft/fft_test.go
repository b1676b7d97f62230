package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"leakest/internal/stats"
)

// naiveDFT is the O(n²) reference both transforms are checked against.
func naiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		acc := complex(0, 0)
		for j := 0; j < n; j++ {
			ang := sign * 2 * math.Pi * float64(j*k) / float64(n)
			acc += x[j] * cmplx.Rect(1, ang)
		}
		out[k] = acc
	}
	return out
}

func randComplex(n int, seed int64) []complex128 {
	rng := stats.NewRNG(seed, "fft-test")
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxDev(a, b []complex128) float64 {
	worst := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestTransformMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		for _, inverse := range []bool{false, true} {
			x := randComplex(n, int64(n))
			want := naiveDFT(x, inverse)
			if err := Transform(x, inverse); err != nil {
				t.Fatal(err)
			}
			if d := maxDev(x, want); d > 1e-10*float64(n) {
				t.Errorf("n=%d inverse=%v: max deviation %g", n, inverse, d)
			}
		}
	}
}

func TestTransformRoundTrip(t *testing.T) {
	n := 128
	x := randComplex(n, 7)
	orig := append([]complex128(nil), x...)
	if err := Transform(x, false); err != nil {
		t.Fatal(err)
	}
	if err := Transform(x, true); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if d := cmplx.Abs(x[i]/complex(float64(n), 0) - orig[i]); d > 1e-12 {
			t.Fatalf("round trip deviates by %g at %d", d, i)
		}
	}
}

func TestTransformRejectsNonPow2(t *testing.T) {
	if err := Transform(make([]complex128, 3), false); err == nil {
		t.Error("length 3 accepted")
	}
	if err := Transform(nil, false); err == nil {
		t.Error("empty input accepted")
	}
	if err := TransformReal(make([]complex128, 6), make([]float64, 6)); err == nil {
		t.Error("real length 6 accepted")
	}
	if err := TransformReal(make([]complex128, 4), make([]float64, 8)); err == nil {
		t.Error("mismatched real buffers accepted")
	}
}

func TestTransformRealMatchesComplex(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 32, 128} {
		rng := stats.NewRNG(int64(n), "fft-real")
		src := make([]float64, n)
		cx := make([]complex128, n)
		for i := range src {
			src[i] = rng.NormFloat64()
			cx[i] = complex(src[i], 0)
		}
		dst := make([]complex128, n)
		if err := TransformReal(dst, src); err != nil {
			t.Fatal(err)
		}
		if err := Transform(cx, false); err != nil {
			t.Fatal(err)
		}
		if d := maxDev(dst, cx); d > 1e-11*float64(n) {
			t.Errorf("n=%d: real transform deviates from complex by %g", n, d)
		}
	}
}

func TestTransform2DMatchesNaive(t *testing.T) {
	rows, cols := 4, 8
	x := randComplex(rows*cols, 3)
	// Naive separable reference: DFT rows, then columns.
	want := make([]complex128, rows*cols)
	copy(want, x)
	for r := 0; r < rows; r++ {
		copy(want[r*cols:(r+1)*cols], naiveDFT(want[r*cols:(r+1)*cols], false))
	}
	col := make([]complex128, rows)
	for c := 0; c < cols; c++ {
		for r := range col {
			col[r] = want[r*cols+c]
		}
		for r, v := range naiveDFT(col, false) {
			want[r*cols+c] = v
		}
	}
	if err := transform2D(x, rows, cols, false); err != nil {
		t.Fatal(err)
	}
	if d := maxDev(x, want); d > 1e-10 {
		t.Errorf("2-D transform deviates from naive by %g", d)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

// TestTransform2DRejects pins the validation errors.
func TestTransform2DRejects(t *testing.T) {
	scratch := make([]complex128, Scratch2DLen(4, 4))
	x := make([]complex128, 16)
	for _, c := range []struct {
		what                           string
		x                              []complex128
		rows, cols, keepRows, keepCols int
		scratch                        []complex128
	}{
		{"length mismatch", append(x, 0), 4, 4, 4, 4, scratch},
		{"short buffer", x[:5], 4, 4, 4, 4, scratch},
		{"non-power-of-two dims", x[:9], 3, 3, 3, 3, scratch},
		{"short scratch", x, 4, 4, 4, 4, scratch[:1]},
		{"zero kept rows", x, 4, 4, 0, 4, scratch},
		{"zero kept cols", x, 4, 4, 4, 0, scratch},
		{"kept rows past the transform", x, 4, 4, 5, 4, scratch},
		{"kept cols past the transform", x, 4, 4, 4, 5, scratch},
	} {
		if err := Transform2DInto(c.x, c.rows, c.cols, c.keepRows, c.keepCols, false, c.scratch); err == nil {
			t.Errorf("%s must be rejected", c.what)
		}
	}
}

// transform2D is the full 2-D transform every corner result is compared
// against.
func transform2D(x []complex128, rows, cols int, inverse bool) error {
	return Transform2DInto(x, rows, cols, rows, cols, inverse, make([]complex128, Scratch2DLen(rows, cols)))
}

// TestTransform2DCornerBitwise pins the corner contract: for random shapes
// up to 256×256 (including single rows and columns), random kept corners
// (including 1×1 and the whole transform) and both directions, every kept
// point equals the full transform's bitwise.
func TestTransform2DCornerBitwise(t *testing.T) {
	rng := stats.NewRNG(5, "fft-corner")
	dims := []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	type shape struct{ rows, cols, keepRows, keepCols int }
	shapes := []shape{{1, 64, 1, 33}, {64, 1, 17, 1}, {1, 1, 1, 1}, {8, 8, 1, 1}, {16, 32, 16, 32}, {256, 256, 129, 127}}
	for len(shapes) < 40 {
		rows, cols := dims[rng.Intn(len(dims))], dims[rng.Intn(len(dims))]
		shapes = append(shapes, shape{rows, cols, 1 + rng.Intn(rows), 1 + rng.Intn(cols)})
	}
	for i, sh := range shapes {
		inverse := i%2 == 1
		src := randComplex(sh.rows*sh.cols, int64(100+i))
		got := append([]complex128(nil), src...)
		if err := Transform2DInto(got, sh.rows, sh.cols, sh.keepRows, sh.keepCols, inverse,
			make([]complex128, Scratch2DLen(sh.rows, sh.cols))); err != nil {
			t.Fatal(err)
		}
		want := append([]complex128(nil), src...)
		if err := transform2D(want, sh.rows, sh.cols, inverse); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < sh.keepRows; r++ {
			for c := 0; c < sh.keepCols; c++ {
				if k := r*sh.cols + c; got[k] != want[k] {
					t.Fatalf("%+v inverse=%v: (%d,%d) differs bitwise (%v vs %v)",
						sh, inverse, r, c, got[k], want[k])
				}
			}
		}
	}
}

// BenchmarkTransform2DCorner times the sampler-shaped inverse transform: a
// 128² torus of which a 45×45 grid corner is read, against the full
// transform of the same torus.
func BenchmarkTransform2DCorner(b *testing.B) {
	const n = 128
	src := randComplex(n*n, 1)
	x := make([]complex128, n*n)
	scratch := make([]complex128, Scratch2DLen(n, n))
	for _, keep := range []int{45, n} {
		b.Run(fmt.Sprintf("keep=%dx%d", keep, keep), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(x, src)
				if err := Transform2DInto(x, n, n, keep, keep, true, scratch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
