package randvar

import (
	"math"
	"testing"
)

// TestSobolPolyEnumeration pins the structure the direction-number table
// relies on: the canonical enumeration must yield exactly the known count of
// primitive polynomials per degree (1, 1, 2, 2, 6, 6, 18 for degrees 1–7),
// and every polynomial it returns must pass the order test.
func TestSobolPolyEnumeration(t *testing.T) {
	degs, as := sobolPolys(SobolMaxDims - 1)
	wantPerDeg := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 6, 6: 6, 7: 18}
	got := map[int]int{}
	for i, s := range degs {
		got[s]++
		p := uint32(1)<<uint(s) | as[i]<<1 | 1
		if !gf2Primitive(p, s) {
			t.Fatalf("enumerated polynomial %#b (degree %d) is not primitive", p, s)
		}
	}
	for s, n := range got {
		if s < 7 && n != wantPerDeg[s] {
			t.Fatalf("degree %d: enumerated %d primitive polynomials, want %d", s, n, wantPerDeg[s])
		}
		if n > wantPerDeg[s] {
			t.Fatalf("degree %d: enumerated %d primitive polynomials, max %d", s, n, wantPerDeg[s])
		}
	}
	// Spot-check the order test itself: x²+x+1 is primitive, x²+1 = (x+1)²
	// is not.
	if !gf2Primitive(0b111, 2) {
		t.Error("x²+x+1 must be primitive")
	}
	if gf2Primitive(0b101, 2) {
		t.Error("x²+1 is reducible and must not be primitive")
	}
}

// TestSobolStratification is the defining (0,1)-sequence property, per
// dimension: among the first 2^m points, each of the 2^m dyadic strata of
// [0,1) is hit exactly once — both unscrambled and scrambled (the Owen
// scramble maps strata onto strata).
func TestSobolStratification(t *testing.T) {
	for _, scramble := range []bool{false, true} {
		var seq *SobolSeq
		var err error
		if scramble {
			seq, err = NewSobol(SobolMaxDims, 12345)
		} else {
			seq, err = NewSobolDegraded(SobolMaxDims, 0, "unscrambled")
		}
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < SobolMaxDims; d++ {
			for m := 1; m <= 8; m++ {
				n := 1 << uint(m)
				seen := make([]bool, n)
				for i := 0; i < n; i++ {
					cell := seq.U32(uint32(i), d) >> uint(32-m)
					if seen[cell] {
						t.Fatalf("scramble=%v dim %d: stratum %d/%d hit twice in the first %d points",
							scramble, d, cell, n, n)
					}
					seen[cell] = true
				}
			}
		}
	}
}

// TestSobolScrambleBijective verifies the Owen scramble never collides: the
// triangular structure makes it a bijection on uint32, so distinct inputs
// must map to distinct outputs (checked over a contiguous block plus the
// extremes).
func TestSobolScrambleBijective(t *testing.T) {
	seen := make(map[uint32]uint32, 1<<16)
	for i := 0; i < 1<<16; i++ {
		x := uint32(i) * 65521 // spread over the word
		y := owenScramble(x, 0xdeadbeef)
		if prev, dup := seen[y]; dup {
			t.Fatalf("owenScramble collides: %#x and %#x both map to %#x", prev, x, y)
		}
		seen[y] = x
	}
}

// TestSobolScrambleSeedVariation: distinct seeds must give distinct point
// sets (the replicate mechanism), while the same seed reproduces bitwise.
func TestSobolScrambleSeedVariation(t *testing.T) {
	a, err := NewSobol(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewSobol(4, 2)
	c, _ := NewSobol(4, 1)
	diff := false
	for i := uint32(0); i < 64; i++ {
		for d := 0; d < 4; d++ {
			if a.U32(i, d) != c.U32(i, d) {
				t.Fatalf("same seed must reproduce bitwise at point %d dim %d", i, d)
			}
			if a.U32(i, d) != b.U32(i, d) {
				diff = true
			}
		}
	}
	if !diff {
		t.Fatal("distinct scramble seeds produced identical sequences")
	}
	// The degraded "unscrambled" mode must ignore the seed entirely.
	u1, _ := NewSobolDegraded(4, 1, "unscrambled")
	u2, _ := NewSobolDegraded(4, 99, "unscrambled")
	for i := uint32(0); i < 64; i++ {
		for d := 0; d < 4; d++ {
			if u1.U32(i, d) != u2.U32(i, d) {
				t.Fatal("unscrambled sequences must not depend on the seed")
			}
		}
	}
}

// TestSobolMeanConvergence: the sample mean of each coordinate over the
// first 4096 scrambled points must be far closer to 1/2 than the plain-MC
// standard error σ/√N ≈ 0.0045 — a direct, if crude, low-discrepancy check
// that also covers the pseudo degrade (which must NOT beat it materially).
func TestSobolMeanConvergence(t *testing.T) {
	const n = 4096
	seq, err := NewSobol(SobolMaxDims, 777)
	if err != nil {
		t.Fatal(err)
	}
	pt := make([]float64, SobolMaxDims)
	sums := make([]float64, SobolMaxDims)
	for i := 0; i < n; i++ {
		pointInto(seq, uint32(i), pt)
		for d, u := range pt {
			if u <= 0 || u >= 1 {
				t.Fatalf("point %d dim %d = %g outside (0,1)", i, d, u)
			}
			sums[d] += u
		}
	}
	for d, s := range sums {
		if err := math.Abs(s/n - 0.5); err > 1e-3 {
			t.Errorf("dim %d: mean of first %d points off 1/2 by %g (want ≪ 0.0045)", d, n, err)
		}
	}
}

// pointInto fills dst with the leading coordinates of point i, each
// centered in its 32-bit dyadic cell: the uniform point NormalsInto maps
// through the normal quantile.
func pointInto(s *SobolSeq, i uint32, dst []float64) {
	for d := range dst {
		dst[d] = (float64(s.U32(i, d)) + 0.5) * 0x1p-32
	}
}

// TestSobolNormalsInto cross-checks the quantile mapping against pointInto.
func TestSobolNormalsInto(t *testing.T) {
	seq, err := NewSobol(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	u := make([]float64, 8)
	z := make([]float64, 8)
	for i := uint32(0); i < 100; i++ {
		pointInto(seq, i, u)
		seq.NormalsInto(i, z)
		for d := range z {
			if want := NormalQuantile(u[d]); z[d] != want {
				t.Fatalf("point %d dim %d: NormalsInto %g != Φ⁻¹(pointInto) %g", i, d, z[d], want)
			}
			if math.IsNaN(z[d]) || math.IsInf(z[d], 0) {
				t.Fatalf("point %d dim %d: non-finite normal %g", i, d, z[d])
			}
		}
	}
}

// TestSobolConstructorBounds pins the dims validation and degrade modes.
func TestSobolConstructorBounds(t *testing.T) {
	for _, dims := range []int{0, -1, SobolMaxDims + 1} {
		if _, err := NewSobol(dims, 1); err == nil {
			t.Errorf("NewSobol(%d) must fail", dims)
		}
	}
	if _, err := NewSobol(SobolMaxDims, 1); err != nil {
		t.Errorf("NewSobol(SobolMaxDims): %v", err)
	}
	if _, err := NewSobolDegraded(4, 1, "bogus"); err == nil {
		t.Error("unknown degrade mode must fail")
	}
	if _, err := NewSobolDegraded(4, 1, "pseudo"); err != nil {
		t.Errorf("pseudo degrade: %v", err)
	}
}

// TestSobolAllocs pins point generation at zero allocations per point — the
// chipmc trial body inherits this bound.
func TestSobolAllocs(t *testing.T) {
	seq, err := NewSobol(SobolMaxDims, 42)
	if err != nil {
		t.Fatal(err)
	}
	z := make([]float64, SobolMaxDims)
	i := uint32(0)
	if n := testing.AllocsPerRun(200, func() {
		seq.NormalsInto(i, z)
		i++
	}); n != 0 {
		t.Fatalf("NormalsInto allocates %v times per point, want 0", n)
	}
}

// FuzzSobolPoint fuzzes index/seed/dimension combinations: coordinates must
// stay in [0,1) (strictly inside (0,1) after the cell-centering offset),
// out-of-range dimensions must panic rather than read garbage, and distinct
// indices must never produce duplicate coordinates in any single dimension
// under scrambling (the per-dim sequence is a bijection and the scramble
// preserves it).
func FuzzSobolPoint(f *testing.F) {
	f.Add(uint32(0), uint32(1), int64(1), uint8(4))
	f.Add(uint32(1023), uint32(1024), int64(-7), uint8(SobolMaxDims))
	f.Add(uint32(1<<31), uint32(1<<31+1), int64(0), uint8(1))
	f.Fuzz(func(t *testing.T, i, j uint32, seed int64, dims8 uint8) {
		dims := int(dims8)%SobolMaxDims + 1
		seq, err := NewSobol(dims, seed)
		if err != nil {
			t.Fatalf("NewSobol(%d, %d): %v", dims, seed, err)
		}
		pt := make([]float64, dims)
		for _, idx := range []uint32{i, j} {
			pointInto(seq, idx, pt)
			for d, u := range pt {
				if !(u > 0 && u < 1) {
					t.Fatalf("point %d dim %d = %g outside (0,1)", idx, d, u)
				}
			}
		}
		if i != j {
			for d := 0; d < dims; d++ {
				if seq.U32(i, d) == seq.U32(j, d) {
					t.Fatalf("dim %d: distinct indices %d and %d collide under scrambling", d, i, j)
				}
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range dimension must panic")
				}
			}()
			seq.U32(i, dims)
		}()
	})
}
