// Package stats provides descriptive statistics, histograms, and
// reproducible random-number streams for the leakage-estimation experiments.
package stats

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
)

// fnv1aPrime is the FNV-1a 64-bit multiplier shared by NewRNG and Stream.
const fnv1aPrime = 1099511628211

// fnv1aSeed hashes the eight little-endian bytes of seed followed by the
// label bytes with FNV-1a, starting from the offset basis.
func fnv1aSeed(seed int64, label string) uint64 {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < 8; i++ {
		h ^= uint64(seed>>(8*i)) & 0xff
		h *= fnv1aPrime
	}
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= fnv1aPrime
	}
	return h
}

// NewRNG returns a deterministic random stream derived from a base seed and
// a stream label, so that independent experiment stages draw from
// non-overlapping, reproducible streams.
func NewRNG(seed int64, stream string) *rand.Rand {
	return rand.New(rand.NewSource(int64(fnv1aSeed(seed, stream) & 0x7fffffffffffffff)))
}

// Stream is a partially evaluated NewRNG: it freezes the FNV-1a hash state
// after (seed, prefix) so per-index seeds can be derived in a hot loop
// without the fmt.Sprintf key allocation. SeedFor(i) equals the source seed
// NewRNG(seed, prefix+strconv.Itoa(i)) would use, bitwise, so reseeding a
// reusable *rand.Rand with it reproduces the historical per-index streams
// exactly.
type Stream struct{ h uint64 }

// NewStream hashes (seed, prefix) once; SeedFor extends the hash with the
// decimal digits of an index.
func NewStream(seed int64, prefix string) Stream {
	return Stream{h: fnv1aSeed(seed, prefix)}
}

// SeedFor returns the PRNG source seed of index i's stream (i ≥ 0).
// rand.NewSource(s) and (*rand.Rand).Seed(s) build identical generator
// states, so rng.Seed(st.SeedFor(i)) matches NewRNG's stream for the same
// key with zero allocations.
func (s Stream) SeedFor(i int) int64 {
	h := s.h
	var buf [20]byte
	b := strconv.AppendInt(buf[:0], int64(i), 10)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnv1aPrime
	}
	return int64(h & 0x7fffffffffffffff)
}

// Mean returns the arithmetic mean of xs; it returns 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased (n−1) sample variance of xs; it returns 0
// for fewer than two samples.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. xs need not be sorted.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// MinMax returns the minimum and maximum of xs. It panics on empty input.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		panic("stats: MinMax of empty slice")
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// RelErr returns the signed relative error (got − want)/want in percent.
// It panics when want is 0.
func RelErr(got, want float64) float64 {
	if want == 0 {
		panic("stats: RelErr with zero reference")
	}
	return 100 * (got - want) / want
}

// Running accumulates streaming mean and variance using Welford's method,
// avoiding the need to retain samples for large Monte-Carlo runs.
type Running struct {
	n    int
	mean float64
	m2   float64
}

// Push adds a sample to the accumulator.
func (r *Running) Push(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// Mean returns the running mean.
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the unbiased running sample variance.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the unbiased running sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }
