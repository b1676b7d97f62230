package randvar

import (
	"context"
	"fmt"
	"math"

	"leakest/internal/fault"
	"leakest/internal/fft"
	"leakest/internal/placement"
	"leakest/internal/spatial"
	"leakest/internal/telemetry"
)

// embedClampTol is the relative tolerance (against the largest eigenvalue)
// within which negative circulant eigenvalues are attributed to round-off and
// clamped to zero. Larger negative mass means the minimal embedding is not
// positive semi-definite for this kernel, and the torus is enlarged instead.
const embedClampTol = 1e-6

// embedMaxAttempts bounds the torus-doubling retries when the minimal
// embedding of the WID kernel is not PSD.
const embedMaxAttempts = 3

// embedMaxPoints bounds the torus size (complex points): 2^25 points are
// 512 MiB of per-worker scratch, past which the embedding refuses rather
// than risk exhausting memory. Kernels whose support forces a larger torus
// belong on the dense path or a coarser grid.
const embedMaxPoints = 1 << 25

// embedExactPoints bounds how far the torus may grow purely to chase a
// kernel's support radius. A 4 mm truncated-exponential kernel demands a
// 4096² torus (16.8M points, seconds per trial) regardless of grid size —
// the default process on a 10×10 grid would pay it too. Past this budget the
// sampler keeps the grid-minimal torus and clamps the residual negative
// eigenvalue mass instead (see embedClampBudget).
const embedExactPoints = 1 << 21

// embedClampBudget bounds the relative variance bias (clamped negative
// eigenvalue mass over the kernel variance) the grid-minimal fallback
// embedding may absorb before refusing. Smooth long-range kernels measure
// well under 3% here; a kernel exceeding the budget is too far from positive
// definite on the torus to approximate honestly.
const embedClampBudget = 0.05

// GridSampler draws the spatially correlated channel-length field over every
// site of a regular placement grid in O(S log S) per pair of trials (S =
// torus points), replacing the O(n³)/O(n²) dense-Cholesky path for large grids.
//
// It uses circulant embedding: the stationary WID covariance
// c(Δrow, Δcol) = σ_WID²·ρ_WID(LagDist) is wrapped onto a tm×tn torus
// (tm ≥ 2·Rows−2, tn ≥ 2·Cols−2, both powers of two), whose covariance
// operator is diagonalized by the 2-D DFT. One forward transform of the
// wrapped kernel at setup yields the eigenvalues λ_k. Draws come in
// Dietrich–Newsam pairs (gridqmc.go): FillPairSpectrum draws a complex
// white-noise vector ξ scaled by sqrt(λ_k/(tm·tn)), one inverse transform
// turns it into a pair torus, and ExtractPair reads its real part and its
// imaginary part as two independent fields. Each has covariance exactly c
// at every admissible grid lag — because the inverse DFT of λ recovers the
// wrapped kernel identically (see the lag-exactness property test) —
// whenever the torus is large enough for the wrapped spectrum to be
// non-negative. When the kernel's support radius would force
// a torus beyond embedExactPoints, the sampler instead keeps the
// grid-minimal torus, clamps the (small, budgeted) negative eigenvalue mass
// to zero, and renormalizes the spectrum so the site variance stays exactly
// σ_WID²; ClampBias reports the resulting lag-covariance bias bound. The
// fields are zero-mean: the nominal length and the die-to-die shift shared
// by every site are the chip Monte Carlo's to add (internal/chipmc).
type GridSampler struct {
	grid   placement.Grid
	tm, tn int
	// scale[k] = sqrt(max(λ_k, 0)/(tm·tn)); nil when the process has no WID
	// component (the field is zero).
	scale []float64
	// clampBias is the clamped negative spectral mass relative to the kernel
	// variance; 0 for an exact embedding.
	clampBias float64
}

// NewGridSamplerContext is NewGridSampler under a "randvar.grid_embed"
// trace span: when ctx carries a trace, the embedding's numerical-health
// facts — torus size and clamped eigenvalue mass — are recorded as span
// attributes, so a traced request shows how much bias the torus absorbed.
// Construction itself is identical to NewGridSampler.
func NewGridSamplerContext(ctx context.Context, proc *spatial.Process, grid placement.Grid) (*GridSampler, error) {
	end := telemetry.StartSpan(ctx, "randvar.grid_embed")
	s, err := NewGridSampler(proc, grid)
	end()
	if err == nil {
		telemetry.SpanAttrStr(ctx, "embed.torus", fmt.Sprintf("%dx%d", s.tm, s.tn))
		telemetry.SpanAttrFloat(ctx, "embed.clamp_bias", s.clampBias)
	}
	return s, err
}

// NewGridSampler builds the embedding for the process's WID kernel on the
// grid; only σ_WID and the kernel are read. It fails when the kernel has significantly negative eigenvalue mass
// even after torus enlargement — a kernel that is not (approximately)
// positive definite on the plane.
func NewGridSampler(proc *spatial.Process, grid placement.Grid) (*GridSampler, error) {
	if proc == nil {
		return nil, fmt.Errorf("randvar: grid sampler requires a process")
	}
	if grid.Rows < 1 || grid.Cols < 1 || grid.SiteW <= 0 || grid.SiteH <= 0 {
		return nil, fmt.Errorf("randvar: degenerate grid %dx%d (pitch %gx%g)",
			grid.Rows, grid.Cols, grid.SiteW, grid.SiteH)
	}
	fault.Hit(fault.SiteGridEmbed)
	if err := fault.Failure(fault.SiteGridEmbed); err != nil {
		return nil, err
	}
	s := &GridSampler{grid: grid}
	vw := proc.SigmaWID * proc.SigmaWID
	if vw == 0 {
		s.tm, s.tn = 1, 1
		return s, nil
	}
	if proc.WIDCorr == nil {
		return nil, fmt.Errorf("randvar: WID variation present but no correlation function")
	}
	// The torus must cover the grid's lag range (≥ 2·dim−2 sites per axis)
	// and, for a compactly supported kernel, should span twice the support
	// radius so the kernel decays to zero before the wrap — otherwise the
	// wrap kink injects real negative eigenvalue mass. Chasing a support
	// radius far beyond the die is unaffordable (a 4 mm kernel would demand
	// a 4096² torus even for a 10×10 grid), so range-driven growth is capped
	// at embedExactPoints; past it the sampler keeps the grid-minimal torus
	// and clamps the negative mass under the embedClampBudget guard.
	gm := fft.NextPow2(2*grid.Rows - 2)
	gn := fft.NextPow2(2*grid.Cols - 2)
	tm, tn := gm, gn
	if r := proc.WIDCorr.Range(); !math.IsInf(r, 1) {
		if m := fft.NextPow2(int(math.Ceil(2 * r / grid.SiteH))); m > tm {
			tm = m
		}
		if m := fft.NextPow2(int(math.Ceil(2 * r / grid.SiteW))); m > tn {
			tn = m
		}
	}
	if (tm != gm || tn != gn) && tm*tn > embedExactPoints {
		if gm*gn > embedMaxPoints {
			return nil, fmt.Errorf("randvar: %dx%d embedding torus exceeds the %d-point budget",
				gm, gn, embedMaxPoints)
		}
		scale, bias, err := embedSpectrum(proc.WIDCorr, grid, vw, gm, gn, true)
		if err != nil {
			return nil, err
		}
		if bias > embedClampBudget {
			return nil, fmt.Errorf("randvar: clamped embedding of %s on %dx%d grid would bias the WID variance by %.2g (budget %g); use the dense sampler",
				proc.WIDCorr.Name(), grid.Rows, grid.Cols, bias, embedClampBudget)
		}
		s.tm, s.tn, s.scale, s.clampBias = gm, gn, scale, bias
		return s, nil
	}
	var lastErr error
	for attempt := 0; attempt < embedMaxAttempts; attempt++ {
		if tm*tn > embedMaxPoints {
			if lastErr == nil {
				lastErr = fmt.Errorf("randvar: %dx%d embedding torus exceeds the %d-point budget",
					tm, tn, embedMaxPoints)
			}
			break
		}
		scale, _, err := embedSpectrum(proc.WIDCorr, grid, vw, tm, tn, false)
		if err == nil {
			s.tm, s.tn, s.scale = tm, tn, scale
			return s, nil
		}
		lastErr = err
		tm *= 2
		tn *= 2
	}
	return nil, fmt.Errorf("randvar: circulant embedding of %s on %dx%d grid not PSD after %d torus enlargements: %w",
		proc.WIDCorr.Name(), grid.Rows, grid.Cols, embedMaxAttempts-1, lastErr)
}

// embedSpectrum wraps the kernel onto the tm×tn torus, diagonalizes it with
// one 2-D DFT, and returns the per-mode amplitude scale. With clampAll false
// any negative mass beyond the round-off clamp is an error (the exact tier);
// with clampAll true negatives are clamped to zero, the spectrum is
// renormalized so the site variance stays exactly vw, and the clamped mass
// relative to vw is returned as the bias bound.
func embedSpectrum(corr spatial.CorrFunc, grid placement.Grid, vw float64, tm, tn int, clampAll bool) ([]float64, float64, error) {
	base := make([]float64, tm*tn)
	for p := 0; p < tm; p++ {
		wp := p
		if tm-p < wp {
			wp = tm - p
		}
		row := base[p*tn : (p+1)*tn]
		for q := 0; q < tn; q++ {
			wq := q
			if tn-q < wq {
				wq = tn - q
			}
			row[q] = vw * corr.Rho(grid.LagDist(wp, wq))
		}
	}
	// Forward 2-D DFT of the (real, even-symmetric) wrapped kernel: real
	// row transforms, then complex column transforms.
	spec := make([]complex128, tm*tn)
	for p := 0; p < tm; p++ {
		if err := fft.TransformReal(spec[p*tn:(p+1)*tn], base[p*tn:(p+1)*tn]); err != nil {
			return nil, 0, err
		}
	}
	col := make([]complex128, tm)
	for q := 0; q < tn; q++ {
		for p := 0; p < tm; p++ {
			col[p] = spec[p*tn+q]
		}
		if err := fft.Transform(col, false); err != nil {
			return nil, 0, err
		}
		for p := 0; p < tm; p++ {
			spec[p*tn+q] = col[p]
		}
	}
	maxEig, minEig, maxImag := 0.0, math.Inf(1), 0.0
	posSum, negSum := 0.0, 0.0
	for _, v := range spec {
		re, im := real(v), math.Abs(imag(v))
		if re > maxEig {
			maxEig = re
		}
		if re < minEig {
			minEig = re
		}
		if im > maxImag {
			maxImag = im
		}
		if re > 0 {
			posSum += re
		} else {
			negSum -= re
		}
	}
	if maxEig <= 0 {
		return nil, 0, fmt.Errorf("randvar: embedded kernel spectrum has no positive mass on %dx%d torus", tm, tn)
	}
	if maxImag > embedClampTol*maxEig {
		return nil, 0, fmt.Errorf("randvar: embedded kernel spectrum not real on %dx%d torus (max imag %g vs max eig %g)",
			tm, tn, maxImag, maxEig)
	}
	if !clampAll && minEig < -embedClampTol*maxEig {
		return nil, 0, fmt.Errorf("randvar: embedded kernel spectrum has negative eigenvalue %g (max %g) on %dx%d torus",
			minEig, maxEig, tm, tn)
	}
	// Σλ = trace = tm·tn·vw, so clamping negatives to zero inflates the site
	// variance by negSum/(tm·tn·vw); renorm undoes the inflation exactly at
	// lag zero, leaving lag-covariance errors bounded by twice that fraction
	// (clamped mass plus the proportional rescale of the retained mass).
	norm := float64(tm) * float64(tn)
	bias := negSum / (norm * vw)
	renorm := 1.0
	if clampAll && posSum > 0 {
		renorm = (posSum - negSum) / posSum
	}
	scale := make([]float64, tm*tn)
	for k, v := range spec {
		if re := real(v); re > 0 {
			scale[k] = math.Sqrt(re * renorm / norm)
		}
	}
	return scale, bias, nil
}

// Sites returns the number of field points a draw produces (grid sites).
func (s *GridSampler) Sites() int { return s.grid.Sites() }

// Grid returns the placement grid the sampler was built for. Callers that
// cache samplers across runs use it to verify a cached embedding still
// matches the placement before reuse.
func (s *GridSampler) Grid() placement.Grid { return s.grid }

// TorusDims returns the embedding torus dimensions (1×1 for a WID-free
// process).
func (s *GridSampler) TorusDims() (tm, tn int) { return s.tm, s.tn }

// ClampBias returns the fraction of the WID variance the embedding clamped
// away because the kernel's support exceeded the affordable torus: 0 for an
// exact embedding, else a value in (0, embedClampBudget]. The site variance
// is renormalized back to exact; lag covariances carry an error bounded by
// 2·ClampBias·σ_WID².
func (s *GridSampler) ClampBias() float64 { return s.clampBias }
