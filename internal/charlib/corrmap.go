package charlib

import (
	"fmt"
	"math"
	"math/rand"

	"leakest/internal/randvar"
)

// PairCov returns the covariance Cov(X_a(l₁), X_b(l₂)) between the fitted
// leakage models of two characterized states whose channel lengths are
// bivariate normal with common marginal N(mu, sigma²) and correlation rhoL
// (the paper's §2.1.3 mapping, evaluated in closed form).
//
// With X = A·e^(BL+CL²), E[X_a·X_b] is a bivariate Gaussian
// quadratic-exponential moment; the perfectly correlated endpoint rhoL = 1
// reduces exactly to a one-dimensional moment of the combined exponent.
func PairCov(a, b *StateChar, rhoL, mu, sigma float64) (float64, error) {
	if rhoL < -1 || rhoL > 1 {
		return 0, fmt.Errorf("charlib: rhoL = %g outside [-1, 1]", rhoL)
	}
	var e2 float64
	var err error
	if rhoL > 1-1e-9 {
		e2, err = randvar.GaussExpMoment1D(a.B+b.B, a.C+b.C, mu, sigma)
		if err != nil {
			return 0, fmt.Errorf("charlib: pair moment at ρ=1: %w", err)
		}
		e2 *= a.A * b.A
	} else {
		m, merr := randvar.GaussQuadExp2D(a.C, b.C, a.B, b.B, mu, mu, sigma, sigma, rhoL)
		if merr != nil {
			return 0, fmt.Errorf("charlib: pair moment: %w", merr)
		}
		e2 = a.A * b.A * m
	}
	return e2 - a.FitMean*b.FitMean, nil
}

// LeakageCorr returns the leakage correlation f_{a,b}(ρ_L) between the
// fitted models of two states: PairCov normalized by the fitted standard
// deviations.
func LeakageCorr(a, b *StateChar, rhoL, mu, sigma float64) (float64, error) {
	if a.FitStd == 0 || b.FitStd == 0 {
		return 0, fmt.Errorf("charlib: zero fitted std in correlation mapping")
	}
	cov, err := PairCov(a, b, rhoL, mu, sigma)
	if err != nil {
		return 0, err
	}
	rho := cov / (a.FitStd * b.FitStd)
	// Guard round-off at the boundary; the mathematical value is in [-1, 1].
	if rho > 1 {
		rho = 1
	}
	if rho < -1 {
		rho = -1
	}
	return rho, nil
}

// MCPairCorr estimates the leakage correlation of two characterized states
// by direct Monte Carlo over the tabulated curves: it samples bivariate
// normal channel lengths with correlation rhoL and computes the sample
// correlation of the two leakages. Used to validate the analytic mapping
// (the MC trace of Fig. 2).
func MCPairCorr(a, b *StateChar, rhoL, mu, sigma float64, samples int, rng *rand.Rand) float64 {
	if samples < 2 {
		panic(fmt.Sprintf("charlib: MCPairCorr needs ≥2 samples, got %d", samples))
	}
	// Single-pass accumulation of means, variances and cross moment.
	var sx, sy, sxx, syy, sxy float64
	for i := 0; i < samples; i++ {
		l1, l2 := randvar.BivariateNormal(rng, mu, sigma, mu, sigma, rhoL)
		x := a.Leakage(l1)
		y := b.Leakage(l2)
		sx += x
		sy += y
		sxx += x * x
		syy += y * y
		sxy += x * y
	}
	n := float64(samples)
	mx, my := sx/n, sy/n
	vx := sxx/n - mx*mx
	vy := syy/n - my*my
	if vx <= 0 || vy <= 0 {
		return 0
	}
	return (sxy/n - mx*my) / math.Sqrt(vx*vy)
}
