package linalg

import (
	"fmt"
	"math"
)

// LeastSquares solves the overdetermined system A·x ≈ b in the least-squares
// sense using Householder QR with column checks. A must have at least as many
// rows as columns and full column rank.
//
// It is used to fit the log-domain leakage model
// ln X = ln a + b·L + c·L², which is linear in (ln a, b, c).
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	m, n := a.rows, a.cols
	if len(b) != m {
		return nil, fmt.Errorf("linalg: rhs length %d != rows %d", len(b), m)
	}
	if m < n {
		return nil, fmt.Errorf("linalg: underdetermined system %dx%d", m, n)
	}
	// Work on copies: Householder QR reduces R in place and applies the
	// same reflections to the rhs.
	r := a.Clone()
	y := make([]float64, m)
	copy(y, b)

	for k := 0; k < n; k++ {
		// Householder vector for column k, rows k..m-1.
		norm := 0.0
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, r.At(i, k))
		}
		if norm == 0 {
			return nil, fmt.Errorf("linalg: rank-deficient matrix (column %d)", k)
		}
		if r.At(k, k) > 0 {
			norm = -norm
		}
		// v = x - norm*e1, stored in column k below the diagonal.
		v := make([]float64, m-k)
		for i := k; i < m; i++ {
			v[i-k] = r.At(i, k)
		}
		v[0] -= norm
		vNorm2 := 0.0
		for _, vi := range v {
			vNorm2 += vi * vi
		}
		if vNorm2 == 0 {
			continue
		}
		// Apply H = I - 2vvᵀ/(vᵀv) to remaining columns of R and to y.
		for j := k; j < n; j++ {
			dot := 0.0
			for i := k; i < m; i++ {
				dot += v[i-k] * r.At(i, j)
			}
			f := 2 * dot / vNorm2
			for i := k; i < m; i++ {
				r.Add(i, j, -f*v[i-k])
			}
		}
		dot := 0.0
		for i := k; i < m; i++ {
			dot += v[i-k] * y[i]
		}
		f := 2 * dot / vNorm2
		for i := k; i < m; i++ {
			y[i] -= f * v[i-k]
		}
	}

	// Back-substitute R[0:n,0:n]·x = y[0:n].
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= r.At(i, j) * x[j]
		}
		d := r.At(i, i)
		if d == 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("linalg: singular R at %d", i)
		}
		x[i] = s / d
	}
	return x, nil
}

// PolyFit fits a polynomial of the given degree to the points (xs, ys) by
// least squares and returns the coefficients c[0] + c[1]x + ... + c[deg]x^deg.
func PolyFit(xs, ys []float64, deg int) ([]float64, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("linalg: PolyFit length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < deg+1 {
		return nil, fmt.Errorf("linalg: PolyFit needs at least %d points, got %d", deg+1, len(xs))
	}
	a := NewMatrix(len(xs), deg+1)
	for i, x := range xs {
		p := 1.0
		for j := 0; j <= deg; j++ {
			a.Set(i, j, p)
			p *= x
		}
	}
	return LeastSquares(a, ys)
}
