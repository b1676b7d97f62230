package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Histogram is a discrete probability distribution over string-labeled
// categories — in this library, the frequency-of-use distribution over
// standard cells (the α_i of the paper, Eq. 6).
type Histogram struct {
	labels []string
	probs  []float64
	cum    []float64 // cumulative, for sampling
}

// NewHistogram builds a normalized histogram from label→weight pairs.
// Weights must be non-negative and sum to a positive value. Labels are
// stored sorted for deterministic iteration.
func NewHistogram(weights map[string]float64) (*Histogram, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("stats: empty histogram")
	}
	labels := make([]string, 0, len(weights))
	for l := range weights {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	total := 0.0
	for _, l := range labels {
		w := weights[l]
		if w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("stats: negative or NaN weight %g for %q", w, l)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("stats: histogram weights sum to %g", total)
	}
	h := &Histogram{labels: labels}
	h.probs = make([]float64, len(labels))
	h.cum = make([]float64, len(labels))
	c := 0.0
	for i, l := range labels {
		h.probs[i] = weights[l] / total
		c += h.probs[i]
		h.cum[i] = c
	}
	h.cum[len(h.cum)-1] = 1 // guard against round-off
	return h, nil
}

// FromCounts builds a histogram from integer usage counts (e.g. extracted
// from a netlist).
func FromCounts(counts map[string]int) (*Histogram, error) {
	w := make(map[string]float64, len(counts))
	for l, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("stats: negative count %d for %q", c, l)
		}
		if c > 0 {
			w[l] = float64(c)
		}
	}
	return NewHistogram(w)
}

// Len returns the number of categories.
func (h *Histogram) Len() int { return len(h.labels) }

// Labels returns the category labels in deterministic (sorted) order.
// The returned slice must not be modified.
func (h *Histogram) Labels() []string { return h.labels }

// Prob returns the probability of label l (0 if absent).
func (h *Histogram) Prob(l string) float64 {
	i := sort.SearchStrings(h.labels, l)
	if i < len(h.labels) && h.labels[i] == l {
		return h.probs[i]
	}
	return 0
}

// Sample draws a label according to the distribution.
func (h *Histogram) Sample(rng *rand.Rand) string {
	u := rng.Float64()
	i := sort.SearchFloat64s(h.cum, u)
	if i >= len(h.labels) {
		i = len(h.labels) - 1
	}
	return h.labels[i]
}

// TotalVariationDistance returns the total-variation distance between two
// histograms over the union of their supports, in [0,1].
func TotalVariationDistance(a, b *Histogram) float64 {
	seen := make(map[string]bool)
	d := 0.0
	for _, l := range a.labels {
		seen[l] = true
		d += math.Abs(a.Prob(l) - b.Prob(l))
	}
	for _, l := range b.labels {
		if !seen[l] {
			d += b.Prob(l)
		}
	}
	return d / 2
}
