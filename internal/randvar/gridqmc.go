package randvar

import (
	"fmt"
	"math/rand"
	"sort"
)

// This file holds the GridSampler's draw primitives. Every grid trial comes
// from a pair: circulant embedding draws a *proper* complex white-noise
// spectrum ξ_k = a_k·(g1 + i·g2), and the real and imaginary parts of its
// inverse 2-D DFT are two independent N(0, C) fields (Dietrich–Newsam
// pairing). One pair torus plus one inverse FFT therefore yields
// two trials for the price of one. A caller fills the spectrum
// (FillPairSpectrum), inverse-transforms it, and reads each trial's field
// off one channel (ExtractPair).
//
// On the quasi-Monte-Carlo route the low-discrepancy deviates drive the
// leading spectral modes (the largest
// per-mode amplitudes, where nearly all of the field variance lives, via
// TopModes and SetMode); the remaining modes stay pseudo-random from the
// pair's own PRNG stream. Both channels of an overwritten mode come from
// coordinates of the *same* Sobol point — coordinates of one scrambled
// point are jointly uniform, so each extracted field keeps the exact
// N(0, C) law and the qmc estimator stays unbiased; splitting one mode's
// two channels across two different (mutually dependent) points would not.

// TorusLen returns the number of complex points one pair torus holds
// (tm·tn; 1 when the process has no WID component).
func (s *GridSampler) TorusLen() int { return s.tm * s.tn }

// TopModes returns the indices of the max largest-amplitude spectral modes
// in deterministic order (amplitude descending, index ascending on ties).
// These are the modes worth spending low-discrepancy dimensions on: the
// per-mode variance of the sampled field is proportional to scale², so the
// leading handful typically carries most of the within-die field variance.
// Returns fewer than max (possibly none) when the spectrum is smaller or
// the process has no WID component.
//
// The qmc sampler keeps 17 modes of up to tens of thousands, so the
// selection runs in O(S log max): a bounded heap holding the best max modes
// seen so far, worst at the root, sorted at the end. The order is total, so
// the result is exactly the prefix of a full sort, and for max ≥ S the
// heap holds every mode and costs O(S log S), no more than the sort.
func (s *GridSampler) TopModes(max int) []int {
	if max <= 0 || s.scale == nil {
		return nil
	}
	before := func(i, j int) bool {
		if ai, aj := s.scale[i], s.scale[j]; ai != aj {
			return ai > aj
		}
		return i < j
	}
	idx := make([]int, 0, min(max, len(s.scale)))
	for k, a := range s.scale {
		switch {
		case a <= 0:
		case len(idx) < max:
			// Sift up: a parent precedes none of its children.
			idx = append(idx, k)
			for c := len(idx) - 1; c > 0 && before(idx[(c-1)/2], idx[c]); c = (c - 1) / 2 {
				idx[c], idx[(c-1)/2] = idx[(c-1)/2], idx[c]
			}
		case before(k, idx[0]):
			// Replace the worst kept mode and sift it down.
			idx[0] = k
			for p := 0; ; {
				w := p
				for _, c := range [2]int{2*p + 1, 2*p + 2} {
					if c < len(idx) && before(idx[w], idx[c]) {
						w = c
					}
				}
				if w == p {
					break
				}
				idx[p], idx[w] = idx[w], idx[p]
				p = w
			}
		}
	}
	sort.Slice(idx, func(i, j int) bool { return before(idx[i], idx[j]) })
	return idx
}

// FillPairSpectrum fills torus (length TorusLen) with one pair's white-noise
// spectrum ξ_k = scale_k·(g1 + i·g2), consuming exactly 2·modes normals from
// rng in mode order, so a per-pair PRNG stream yields identical spectra at
// any worker count. Modes with zero amplitude (clamped
// eigenvalues) are written as zero, and a WID-free sampler writes nothing
// (its 1×1 torus is never read). Allocation-free.
func (s *GridSampler) FillPairSpectrum(rng *rand.Rand, torus []complex128) {
	if len(torus) != s.tm*s.tn {
		panic(fmt.Sprintf("randvar: pair torus length %d != %d points", len(torus), s.tm*s.tn))
	}
	for k, a := range s.scale {
		torus[k] = complex(a*rng.NormFloat64(), a*rng.NormFloat64())
	}
}

// SetMode overwrites spectral mode k of a pair torus with the given
// standard-normal pair, scaled by the mode's amplitude — the hook the qmc
// sampler uses to substitute low-discrepancy deviates for the leading modes
// after FillPairSpectrum. k must come from TopModes.
func (s *GridSampler) SetMode(torus []complex128, k int, g1, g2 float64) {
	a := s.scale[k]
	torus[k] = complex(a*g1, a*g2)
}

// ExtractPair reads one of the two independent zero-mean WID fields out of
// an inverse-transformed pair torus: channel 0 is the real part, channel 1
// the imaginary part. Only the grid's Rows×Cols corner of the torus is read,
// and a WID-free sampler writes zeros. field must have length Sites.
// Allocation-free.
func (s *GridSampler) ExtractPair(torus []complex128, channel int, field []float64) {
	g := s.grid
	if len(field) != g.Sites() {
		panic(fmt.Sprintf("randvar: pair field length %d != %d sites", len(field), g.Sites()))
	}
	if s.scale == nil {
		clear(field)
		return
	}
	if len(torus) != s.tm*s.tn {
		panic(fmt.Sprintf("randvar: pair torus length %d != %d points", len(torus), s.tm*s.tn))
	}
	for r := 0; r < g.Rows; r++ {
		row := torus[r*s.tn : r*s.tn+g.Cols]
		out := field[r*g.Cols : (r+1)*g.Cols]
		if channel == 0 {
			for c := range out {
				out[c] = real(row[c])
			}
		} else {
			for c := range out {
				out[c] = imag(row[c])
			}
		}
	}
}
