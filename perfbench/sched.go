package main

import (
	"math"
	"math/rand"
	"sort"
)

// The op sequence of every workload is one cycle of ops, repeated until the
// timed phase ends, and is a pure function of the seed. Two properties keep
// the latency percentiles steady from run to run and seed to seed:
//
//   - sizes are log-spaced: a kind with c ops per cycle takes its j-th
//     size from the j-th of c equal log-width strata, so op costs spread
//     over the whole range, the same for every seed;
//   - the cycle order is balanced: a kind's ops are placed by the van der
//     Corput radical inverse of their stratum index, so any prefix of the
//     cycle holds each kind and each size range in proportion, and a run
//     that stops mid-cycle still measures the same mix.

// newRNG returns the generator for one named stream of a workload's seed.
func newRNG(seed int64, stream string) *rand.Rand {
	h := uint64(1469598103934665603)
	for _, b := range []byte(stream) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return rand.New(rand.NewSource(int64((h ^ uint64(seed)*0x9e3779b97f4a7c15) & 0x7fffffffffffffff)))
}

// logSizes returns c sizes between lo and hi, spaced evenly in log space:
// the j-th is the log-midpoint of the j-th of c equal strata. The sizes do
// not depend on the seed: the program's cost is not smooth in the size (a
// tiled estimate costs more when the tiles do not divide the grid
// evenly), so seeded sizes moved the ops near a latency percentile from
// seed to seed. The seed moves everything else — the order, the cell mix,
// the netlists, the placements and the random streams.
func logSizes(c int, lo, hi float64) []int {
	out := make([]int, c)
	span := math.Log(hi / lo)
	for j := range out {
		out[j] = int(math.Round(lo * math.Exp(span*(float64(j)+0.5)/float64(c))))
	}
	return out
}

// vdc is the base-2 van der Corput radical inverse of j, in [0, 1).
func vdc(j int) float64 {
	v, f := 0.0, 0.5
	for ; j > 0; j >>= 1 {
		if j&1 == 1 {
			v += f
		}
		f /= 2
	}
	return v
}

// placed is one op of a kind with its balanced-order key.
type placed[T any] struct {
	key float64
	op  T
}

// balance merges per-kind op lists (each in stratum order) into one cycle
// whose every prefix holds each kind and each stratum in proportion. The
// seed rotates the phase of every kind but the first, so seeds differ in
// order as well as in sizes, while op 0 — the warm-up op inside setup_s —
// is always the first kind's smallest op.
func balance[T any](rng *rand.Rand, kinds ...[]T) []T {
	var all []placed[T]
	for k, ops := range kinds {
		phase := 0.0
		if k > 0 {
			phase = rng.Float64()
		}
		for j, op := range ops {
			k := vdc(j) + phase
			all = append(all, placed[T]{key: k - math.Floor(k), op: op})
		}
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].key < all[b].key })
	out := make([]T, len(all))
	for i, p := range all {
		out[i] = p.op
	}
	return out
}

// rankTiles is the tile count of the j-th of c size strata: tiles grow
// with the design, from lo per axis for the smallest to hi for the
// largest, so the largest ops' cost does not depend on a seeded draw.
func rankTiles(j, c, lo, hi int) int {
	return lo + j*(hi-lo+1)/c
}

// jitter scales base by a factor drawn log-uniformly in [1/f, f], so a
// parameter such as a trial count varies continuously from op to op.
func jitter(rng *rand.Rand, base int, f float64) int {
	return int(math.Round(float64(base) * math.Exp((2*rng.Float64()-1)*math.Log(f))))
}
