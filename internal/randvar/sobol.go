package randvar

import (
	"fmt"
	"math/bits"
)

// This file implements the scrambled-Sobol low-discrepancy sequence behind
// the chipmc quasi-MC sampler (Sampler "qmc"). Three properties matter to
// callers and are pinned by the sobol tests:
//
//   - Each dimension is a base-2 (0,1)-sequence: the first 2^m points hit
//     each of the 2^m dyadic strata exactly once, for every m — the source
//     of the better-than-1/√N convergence.
//   - Owen-style scrambling (the hash-based nested uniform scramble of
//     Laine–Karras/Burley) is a bijection on 32-bit fractions that maps
//     dyadic strata onto dyadic strata, so it preserves the stratification
//     while making every individual point exactly uniform on [0,1)^dims —
//     the scrambled estimator is unbiased and distinct seeds give
//     independent-in-expectation replicates.
//   - Generation is deterministic in (dims, seed) and allocation-free per
//     point, so the chipmc hot loop stays under its AllocsPerRun pin and the
//     §9 bitwise determinism contract extends to the qmc path.
//
// Direction numbers: dimension 0 is the van der Corput sequence; higher
// dimensions use primitive polynomials over GF(2) enumerated in the
// canonical order (degree ascending, then coefficient encoding ascending —
// the Joe–Kuo ordering) with Joe–Kuo-style initial values m_i. The
// polynomials are *derived* at init by an exhaustive primitivity search
// rather than transcribed, so the only tabulated data are the initial m_i,
// each of which init verifies to be odd and < 2^i — the exact conditions
// under which the recurrence yields a valid (0,1)-sequence in every
// dimension.

// SobolMaxDims is the number of dimensions the direction-number table
// supports. The chipmc qmc sampler needs at most 2 + 2·qmcGridModes on the
// grid path and min(n, SobolMaxDims) leading Cholesky deviates on the dense
// path; remaining coordinates stay pseudo-random.
const SobolMaxDims = 37

// sobolInitM holds the initial direction values m_1..m_s per dimension
// d = 1..SobolMaxDims-1 (dimension 0 is van der Corput and needs none).
// Entry i must be odd and < 2^(i+1); init enforces both.
var sobolInitM = [SobolMaxDims - 1][]uint32{
	{1},
	{1, 3},
	{1, 3, 1},
	{1, 1, 1},
	{1, 1, 3, 3},
	{1, 3, 5, 13},
	{1, 1, 5, 5, 17},
	{1, 1, 5, 5, 5},
	{1, 1, 7, 11, 19},
	{1, 1, 5, 1, 1},
	{1, 1, 1, 3, 11},
	{1, 3, 5, 5, 31},
	{1, 3, 3, 9, 7, 49},
	{1, 1, 1, 15, 21, 21},
	{1, 3, 1, 13, 27, 49},
	{1, 1, 1, 15, 7, 5},
	{1, 3, 1, 15, 13, 25},
	{1, 1, 5, 5, 19, 61},
	{1, 3, 7, 11, 23, 15, 103},
	{1, 3, 7, 13, 13, 15, 69},
	{1, 1, 3, 13, 7, 35, 63},
	{1, 3, 5, 9, 1, 25, 53},
	{1, 3, 1, 13, 9, 35, 107},
	{1, 3, 1, 5, 27, 61, 3},
	{1, 1, 5, 11, 19, 41, 15},
	{1, 3, 5, 3, 3, 59, 67},
	{1, 1, 7, 13, 1, 19, 45},
	{1, 3, 1, 3, 25, 29, 47},
	{1, 3, 7, 15, 29, 15, 25},
	{1, 3, 3, 5, 11, 9, 71},
	{1, 1, 3, 15, 19, 15, 111},
	{1, 3, 7, 3, 17, 51, 31},
	{1, 3, 5, 13, 11, 53, 41},
	{1, 1, 5, 5, 3, 15, 35},
	{1, 1, 7, 1, 23, 37, 21},
	{1, 3, 7, 7, 5, 53, 17},
}

// sobolV is the shared direction-number matrix: sobolV[d][b] is the
// direction number consumed when bit b of the Gray-coded index is set.
// Computed once at init; immutable afterwards.
var sobolV [SobolMaxDims][32]uint32

// gf2OrderFactors lists the prime factors of 2^s−1 for the polynomial
// degrees the table uses; the primitivity test needs them to verify the
// order of x is exactly 2^s−1.
var gf2OrderFactors = map[int][]int{
	1: {}, 2: {3}, 3: {7}, 4: {3, 5}, 5: {31}, 6: {3, 7}, 7: {127},
}

// gf2Mul multiplies two residues modulo the degree-s polynomial p (whose
// 1<<s bit is set) over GF(2).
func gf2Mul(a, b, p uint32, s int) uint32 {
	var r uint32
	for b != 0 {
		if b&1 != 0 {
			r ^= a
		}
		b >>= 1
		a <<= 1
		if a&(1<<uint(s)) != 0 {
			a ^= p
		}
	}
	return r
}

// gf2PowX raises x to the e-th power modulo p (degree s).
func gf2PowX(e int, p uint32, s int) uint32 {
	r, base := uint32(1), uint32(2)
	// Reduce the base once in case s == 1 (x itself overflows one bit).
	if base&(1<<uint(s)) != 0 {
		base ^= p
	}
	for ; e > 0; e >>= 1 {
		if e&1 != 0 {
			r = gf2Mul(r, base, p, s)
		}
		base = gf2Mul(base, base, p, s)
	}
	return r
}

// gf2Primitive reports whether the degree-s polynomial p (with both the
// leading and constant bits set) is primitive over GF(2): the order of x
// modulo p must be exactly 2^s−1.
func gf2Primitive(p uint32, s int) bool {
	n := (1 << uint(s)) - 1
	if gf2PowX(n, p, s) != 1 {
		return false
	}
	for _, q := range gf2OrderFactors[s] {
		if n%q == 0 && gf2PowX(n/q, p, s) == 1 {
			return false
		}
	}
	return true
}

// sobolPolys enumerates the first count primitive polynomials over GF(2) in
// the canonical table order: degree ascending, then the interior-coefficient
// encoding a ascending (a's bit s−1−k is the coefficient of x^k... encoded
// MSB-first as in the published tables). Each result is (degree, a).
func sobolPolys(count int) (degs []int, as []uint32) {
	for s := 1; len(degs) < count; s++ {
		if s > 7 {
			panic("randvar: sobol polynomial search exceeded the tabled degrees")
		}
		for a := uint32(0); a < 1<<uint(s-1) && len(degs) < count; a++ {
			p := uint32(1)<<uint(s) | a<<1 | 1
			if gf2Primitive(p, s) {
				degs = append(degs, s)
				as = append(as, a)
			}
		}
	}
	return degs, as
}

func init() {
	// Dimension 0: van der Corput — v_b has only bit 31−b set.
	for b := 0; b < 32; b++ {
		sobolV[0][b] = 1 << uint(31-b)
	}
	degs, as := sobolPolys(SobolMaxDims - 1)
	for d := 1; d < SobolMaxDims; d++ {
		s, a, m := degs[d-1], as[d-1], sobolInitM[d-1]
		if len(m) != s {
			panic(fmt.Sprintf("randvar: sobol dim %d has %d initial values, polynomial degree %d", d, len(m), s))
		}
		v := &sobolV[d]
		for i := 1; i <= s; i++ {
			mi := m[i-1]
			if mi%2 == 0 || mi >= 1<<uint(i) {
				panic(fmt.Sprintf("randvar: sobol dim %d m_%d = %d must be odd and < 2^%d", d, i, mi, i))
			}
			v[i-1] = mi << uint(32-i)
		}
		// The classical recurrence, in shifted form:
		// v_i = v_{i−s} ⊕ (v_{i−s} >> s) ⊕ Σ_{k: a_k=1} v_{i−k}.
		for i := s + 1; i <= 32; i++ {
			x := v[i-s-1] ^ (v[i-s-1] >> uint(s))
			for k := 1; k < s; k++ {
				if a>>uint(s-1-k)&1 != 0 {
					x ^= v[i-k-1]
				}
			}
			v[i-1] = x
		}
	}
}

// Degraded sequence modes for the conformance self-check (see
// NewSobolDegraded); the zero value is the production scrambled sequence.
const (
	sobolScrambled = iota
	sobolUnscrambled
	sobolPseudo
)

// SobolSeq generates points of a (scrambled) Sobol sequence with random
// access by index: point i is computed in O(dims) without generating its
// predecessors, so parallel workers can draw disjoint index ranges with no
// shared state. The zero value is not usable; construct with NewSobol.
type SobolSeq struct {
	dims  int
	mode  int
	seeds []uint32 // per-dimension scramble seeds
}

// NewSobol returns an Owen-scrambled Sobol sequence over dims dimensions
// (1 ≤ dims ≤ SobolMaxDims). The scramble is seeded and deterministic: the
// same (dims, seed) always yields the same points, and distinct seeds yield
// independent scramble replicates of the same underlying sequence — the
// basis of both the replicate-SD convergence measurement and the §9
// determinism contract of the qmc sampler.
func NewSobol(dims int, seed int64) (*SobolSeq, error) {
	return newSobol(dims, seed, sobolScrambled)
}

// NewSobolDegraded returns a deliberately degraded sequence for the
// conformance self-check, proving the convergence gates can fail:
// mode "unscrambled" drops the Owen scramble (replicates at different seeds
// collapse onto one deterministic sequence), mode "pseudo" replaces the
// low-discrepancy points with a seeded counter-based pseudo-random stream
// (uniform but with plain-MC 1/√N convergence).
func NewSobolDegraded(dims int, seed int64, mode string) (*SobolSeq, error) {
	switch mode {
	case "unscrambled":
		return newSobol(dims, seed, sobolUnscrambled)
	case "pseudo":
		return newSobol(dims, seed, sobolPseudo)
	}
	return nil, fmt.Errorf("randvar: unknown degraded sobol mode %q (want unscrambled or pseudo)", mode)
}

func newSobol(dims int, seed int64, mode int) (*SobolSeq, error) {
	if dims < 1 || dims > SobolMaxDims {
		return nil, fmt.Errorf("randvar: sobol dims %d outside [1, %d]", dims, SobolMaxDims)
	}
	s := &SobolSeq{dims: dims, mode: mode, seeds: make([]uint32, dims)}
	for d := range s.seeds {
		s.seeds[d] = sobolMix(uint64(seed), uint32(d))
	}
	return s, nil
}

// sobolMix derives the per-dimension scramble seed from the master seed via
// the splitmix64 finalizer: dimensions must scramble independently or the
// joint distribution of a point's coordinates would not be uniform on the
// cube.
func sobolMix(seed uint64, d uint32) uint32 {
	x := seed + 0x9e3779b97f4a7c15*uint64(d+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return uint32(x)
}

// owenScramble applies the hash-based Owen scramble (Laine–Karras
// permutation in reversed-bit space). Every x ^= x*C step with C even is a
// lower-triangular bijection over GF(2) — output bit j depends only on
// input bits ≤ j — so in reversed space each output digit depends only on
// more-significant input digits: exactly Owen's nested scramble structure.
// Bijectivity means scrambling never collides distinct points.
func owenScramble(x, seed uint32) uint32 {
	x = bits.Reverse32(x)
	x += seed
	x ^= x * 0x6c50b47c
	x ^= x * 0xb82f1e52
	x ^= x * 0xc7afe638
	x ^= x * 0x8d22f6e6
	return bits.Reverse32(x)
}

// U32 returns coordinate d of point i as a 32-bit fraction (the integer x
// represents x·2⁻³²). Gray-code random access: the Gray code of i selects
// which direction numbers XOR together, giving point i directly in
// O(popcount) rather than by stepping the recurrence i times.
func (s *SobolSeq) U32(i uint32, d int) uint32 {
	if d < 0 || d >= s.dims {
		panic(fmt.Sprintf("randvar: sobol dimension %d outside [0, %d)", d, s.dims))
	}
	if s.mode == sobolPseudo {
		// Counter-based uniform stream: splitmix of (seed_d, i). Uniform and
		// deterministic, but with no stratification whatsoever.
		return sobolMix(uint64(s.seeds[d])<<32|uint64(i), 0x5bd1)
	}
	v := &sobolV[d]
	var x uint32
	for g, b := i^(i>>1), 0; g != 0; g, b = g>>1, b+1 {
		if g&1 != 0 {
			x ^= v[b]
		}
	}
	if s.mode == sobolScrambled {
		x = owenScramble(x, s.seeds[d])
	}
	return x
}

// NormalsInto fills dst (length ≤ the sequence's dims) with the leading
// coordinates of point i mapped through the standard-normal quantile — the
// quasi-random analogue of len(dst) calls to rng.NormFloat64(). The +0.5
// offset centers each 32-bit fraction in its dyadic cell, keeping it
// strictly inside (0, 1) so the quantile never sees 0 or 1.
// Allocation-free.
func (s *SobolSeq) NormalsInto(i uint32, dst []float64) {
	if len(dst) > s.dims {
		panic(fmt.Sprintf("randvar: sobol point needs %d dims, sequence has %d", len(dst), s.dims))
	}
	for d := range dst {
		dst[d] = NormalQuantile((float64(s.U32(i, d)) + 0.5) * 0x1p-32)
	}
}
