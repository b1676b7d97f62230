package server

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"leakest"
	"leakest/internal/chipmc"
	"leakest/internal/lkerr"
	"leakest/internal/spatial"
	"leakest/internal/telemetry"
)

// EstimateRequest is the body of POST /v1/estimate and POST /v1/jobs: a
// design described either early (histogram + dimensions) or late (a placed
// .bench netlist), an optional process override, and optional knobs for
// method, budget, Monte Carlo, and deadline.
type EstimateRequest struct {
	// Process overrides the default 90 nm variation model. The JSON shape
	// matches the characterized-library format (l_nominal_um, sigma_d2d_um,
	// sigma_wid_um, sigma_vt_v, wid_corr{type,lambda,r}).
	Process *spatial.Process `json:"process,omitempty"`
	// Design gives the early-mode characteristics; exactly one of Design
	// and Bench must be set.
	Design *DesignRequest `json:"design,omitempty"`
	// Bench is an ISCAS85 .bench netlist (late mode). The placement is the
	// deterministic AutoPlace at Seed.
	Bench string `json:"bench,omitempty"`
	// Name labels a Bench submission (affects the deterministic placement
	// stream and the artifact-cache key). Default "design".
	Name string `json:"name,omitempty"`
	// Seed is the placement seed for Bench submissions (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Method picks the estimator (auto|linear|integral|polar|naive); polar
	// applies at every die size and correlation range. It is honored
	// verbatim only when no budget — the request's or the admission
	// controller's — is in force; under a budget the degradation ladder
	// decides, and its O(1) floor is polar.
	Method string `json:"method,omitempty"`
	// Truth starts the ladder at the O(n²) true-leakage rung (Bench only).
	Truth bool `json:"truth,omitempty"`
	// MCSamples additionally runs a full-chip Monte Carlo (Bench only).
	MCSamples int `json:"mc_samples,omitempty"`
	// Sampler selects the MC field sampler (auto|dense|fft|qmc; default
	// auto). "qmc" draws trials from a scrambled-Sobol sequence — same
	// distribution, fewer trials to a given standard error.
	Sampler string `json:"sampler,omitempty"`
	// Tail requests distribution-tail statistics from the Monte-Carlo run
	// (requires Bench and MCSamples).
	Tail *TailRequest `json:"tail,omitempty"`
	// Tiles activates the §16 tiled pipeline: the die is partitioned T×T,
	// estimated per tile, and combined exactly through the inter-tile
	// covariance. Valid with the linear, auto, and integral methods (the
	// tiled linear result is bitwise identical to the monolithic one) and
	// with mc_samples; incompatible with polar, naive, and truth.
	Tiles *TilesRequest `json:"tiles,omitempty"`
	// SignalProb applies to all inputs; omitted selects the
	// leakage-maximizing (conservative) setting.
	SignalProb *float64 `json:"signal_prob,omitempty"`
	// Vt applies the random-Vt mean correction (default true).
	Vt *bool `json:"vt,omitempty"`
	// TimeoutMS bounds the whole request; 0 uses the server default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Budget tightens the work bounds below whatever the admission
	// controller imposes.
	Budget *BudgetRequest `json:"budget,omitempty"`
}

// DesignRequest is the early-mode design description.
type DesignRequest struct {
	// Hist maps cell names to usage weights.
	Hist map[string]float64 `json:"hist"`
	// N is the gate count.
	N int `json:"n"`
	// W and H are the layout dimensions in µm.
	W float64 `json:"w_um"`
	H float64 `json:"h_um"`
}

// TailRequest asks the Monte-Carlo stage for distribution-tail statistics:
// leakage quantiles, the exceedance probability at a spec, and optionally
// the importance-sampled deep-tail estimate.
type TailRequest struct {
	// Spec is the leakage spec in amperes; > 0 requests P[I_leak > Spec].
	Spec float64 `json:"spec_a,omitempty"`
	// Quantiles lists tail probabilities, each strictly inside (0, 1);
	// duplicates are dropped and the response is ascending.
	Quantiles []float64 `json:"quantiles,omitempty"`
	// ISTrials is the importance-sampled trial budget for the deep-tail
	// exceedance; 0 uses the plain-MC trials alone. Requires Spec > 0.
	ISTrials int `json:"is_trials,omitempty"`
}

// config renders the tail block as the Monte Carlo's tail configuration.
func (t *TailRequest) config() *chipmc.TailConfig {
	return &chipmc.TailConfig{Spec: t.Spec, Quantiles: t.Quantiles, ISTrials: t.ISTrials}
}

// TilesRequest configures the tiled estimation pipeline.
type TilesRequest struct {
	// T is the per-axis tile count; the die is partitioned into at most T×T
	// tiles. 0 and 1 mean monolithic.
	T int `json:"t"`
	// PerTile additionally returns the per-tile moment breakdown in
	// result.tile_stats.
	PerTile bool `json:"per_tile,omitempty"`
}

// BudgetRequest mirrors leakest.EstimateBudget over JSON.
type BudgetRequest struct {
	MaxGates  int   `json:"max_gates,omitempty"`
	MaxPairs  int64 `json:"max_pairs,omitempty"`
	TimeoutMS int   `json:"rung_timeout_ms,omitempty"`
}

// validate rejects malformed requests before any work is admitted.
func (r *EstimateRequest) validate() error {
	const op = "server.EstimateRequest"
	if (r.Design == nil) == (r.Bench == "") {
		return lkerr.New(lkerr.InvalidInput, op, "exactly one of design and bench must be set")
	}
	if r.Design != nil && (r.Truth || r.MCSamples > 0) {
		return lkerr.New(lkerr.InvalidInput, op, "truth and mc_samples need a bench netlist")
	}
	if r.Method != "" {
		if _, err := leakest.ParseMethod(r.Method); err != nil {
			return err
		}
	}
	if r.Sampler != "" {
		if _, err := leakest.ParseSampler(r.Sampler); err != nil {
			return err
		}
	}
	if r.SignalProb != nil && !(*r.SignalProb >= 0 && *r.SignalProb <= 1) {
		return lkerr.New(lkerr.InvalidInput, op, "signal probability %g outside [0,1]", *r.SignalProb)
	}
	if r.MCSamples < 0 || r.TimeoutMS < 0 {
		return lkerr.New(lkerr.InvalidInput, op, "negative mc_samples or timeout_ms")
	}
	if r.Tail != nil {
		if r.MCSamples == 0 {
			return lkerr.New(lkerr.InvalidInput, op, "tail statistics need mc_samples > 0")
		}
		if _, err := r.Tail.config().Validate(); err != nil {
			return err
		}
		if r.Tail.Spec == 0 && len(r.Tail.Quantiles) == 0 {
			return lkerr.New(lkerr.InvalidInput, op, "tail request needs spec_a or quantiles")
		}
	}
	if r.Tiles != nil {
		if r.Tiles.T < 0 {
			return lkerr.New(lkerr.InvalidInput, op, "negative tile count %d", r.Tiles.T)
		}
		if r.Tiles.T > 1 {
			if r.Method == "polar" || r.Method == "naive" {
				return lkerr.New(lkerr.InvalidInput, op,
					"method %q does not support tiling; use linear, auto, or integral", r.Method)
			}
			if r.Truth {
				return lkerr.New(lkerr.InvalidInput, op, "truth is monolithic; drop tiles or truth")
			}
		}
	}
	if r.Process != nil {
		if err := r.Process.Validate(); err != nil {
			return lkerr.Wrap(lkerr.InvalidInput, op, err)
		}
	}
	return nil
}

// budget renders the request's own work bounds.
func (r *EstimateRequest) budget() leakest.EstimateBudget {
	if r.Budget == nil {
		return leakest.EstimateBudget{}
	}
	return leakest.EstimateBudget{
		MaxGates: r.Budget.MaxGates,
		MaxPairs: r.Budget.MaxPairs,
		Timeout:  msToDuration(r.Budget.TimeoutMS),
	}
}

// EstimateResponse is the body of a successful estimation.
type EstimateResponse struct {
	RequestID string `json:"request_id"`
	// Result carries the moments, the method that finally ran, and — when
	// a budget forced a fall down the degradation ladder — the reasons.
	Result ResultBody `json:"result"`
	// MonteCarlo is present when mc_samples was requested.
	MonteCarlo *MCBody `json:"monte_carlo,omitempty"`
	// Admission reports the load level the request was admitted under and
	// the queue depth it saw; degraded results under load carry the
	// matching reason in Result.DegradeReason.
	Admission AdmissionBody `json:"admission"`
	// Conformance is the cheap cross-estimator sanity check of the served
	// moments (see DESIGN.md §12).
	Conformance *ConformanceBody `json:"conformance,omitempty"`
	// Trace is the request's span tree with per-span attributes (sampler,
	// degradation rung, cache hits, clamp bias, …); the same trace stays
	// retrievable at /debug/traces/{request_id} per the flight recorder's
	// retention policy.
	Trace *telemetry.TraceSnapshot `json:"trace,omitempty"`
}

// ResultBody is the JSON rendering of a leakest.Result.
type ResultBody struct {
	Mean          float64     `json:"mean_a"`
	Std           float64     `json:"std_a"`
	Method        string      `json:"method"`
	Note          string      `json:"note,omitempty"`
	Degraded      bool        `json:"degraded,omitempty"`
	DegradeReason string      `json:"degrade_reason,omitempty"`
	Timings       []StageBody `json:"timings,omitempty"`
	// Tiles is the number of tiles the tiled pipeline actually used (0 when
	// monolithic); TileStats is the per-tile breakdown, present only when
	// the request set tiles.per_tile.
	Tiles     int                `json:"tiles,omitempty"`
	TileStats []leakest.TileStat `json:"tile_stats,omitempty"`
}

// StageBody is one pipeline-stage timing.
type StageBody struct {
	Stage     string  `json:"stage"`
	Seconds   float64 `json:"seconds"`
	RequestID string  `json:"-"`
}

// MCBody summarizes an attached Monte-Carlo run.
type MCBody struct {
	Mean    float64 `json:"mean_a"`
	Std     float64 `json:"std_a"`
	Q05     float64 `json:"q05_a"`
	Q95     float64 `json:"q95_a"`
	Samples int     `json:"samples"`
	// Tail carries the distribution-tail block when the request asked for
	// it: quantiles, p_exceed with its source ("mc", "is", "fallback"), and
	// the importance-sampling diagnostics. NaN-valued probability fields
	// (no spec requested) render as null — see TailStats.MarshalJSON.
	Tail *leakest.TailStats `json:"tail,omitempty"`
}

// AdmissionBody reports how the admission controller treated the request.
type AdmissionBody struct {
	// Level is the load level at admission: normal, busy, heavy, overload.
	Level string `json:"level"`
	// QueueDepth is the number of requests still waiting when this one was
	// admitted to a worker.
	QueueDepth int `json:"queue_depth"`
	// BudgetImposed reports that the level attached a load-shedding budget
	// (the degradation ladder may then serve a cheaper estimate).
	BudgetImposed bool `json:"budget_imposed,omitempty"`
}

// ConformanceBody is the per-request cross-estimator check: the served mean
// is compared against the method-independent closed form, and the served σ
// against the constant-time integral when the served method is a more
// expensive rung.
type ConformanceBody struct {
	Status     string  `json:"status"` // ok | mismatch | skipped
	Reference  string  `json:"reference,omitempty"`
	MeanRelDev float64 `json:"mean_rel_dev,omitempty"`
	StdRelDev  float64 `json:"std_rel_dev,omitempty"`
	Detail     string  `json:"detail,omitempty"`
}

// ErrorBody is the JSON error envelope.
type ErrorBody struct {
	RequestID string    `json:"request_id,omitempty"`
	Error     ErrorInfo `json:"error"`
}

// ErrorInfo carries the typed error class and message.
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterS echoes the Retry-After header on 429 responses.
	RetryAfterS int `json:"retry_after_s,omitempty"`
}

// JobBody is the status document of GET /v1/jobs/{id}.
type JobBody struct {
	ID    string `json:"id"`
	State string `json:"state"` // queued | running | done | failed | canceled
	// Progress is the latest report from the running pipeline stage.
	Progress *ProgressBody `json:"progress,omitempty"`
	// Result is present once State is done.
	Result *EstimateResponse `json:"result,omitempty"`
	// Error is present once State is failed or canceled.
	Error *ErrorInfo `json:"error,omitempty"`
	// Trace is the job's completed span tree (terminal states only).
	Trace *telemetry.TraceSnapshot `json:"trace,omitempty"`
}

// ProgressBody is one progress snapshot of a running job.
type ProgressBody struct {
	Stage   string  `json:"stage"`
	Done    int64   `json:"done"`
	Total   int64   `json:"total"`
	Percent float64 `json:"percent"`
}

func progressBody(p telemetry.Progress) *ProgressBody {
	return &ProgressBody{Stage: p.Stage, Done: p.Done, Total: p.Total, Percent: p.Percent()}
}

// resultBody converts a library Result for the wire.
func resultBody(res leakest.Result) ResultBody {
	b := ResultBody{
		Mean:          res.Mean,
		Std:           res.Std,
		Method:        res.Method,
		Note:          res.Note,
		Degraded:      res.Degraded,
		DegradeReason: res.DegradeReason,
	}
	for _, st := range res.Timings {
		b.Timings = append(b.Timings, StageBody{Stage: st.Stage, Seconds: st.Seconds()})
	}
	return b
}

// errorCodeString renders the typed class for the wire; unclassified errors
// report "internal".
func errorCodeString(err error) string {
	if c := lkerr.CodeOf(err); c != 0 {
		return c.String()
	}
	return "internal"
}

// newID returns a fresh random identifier with the given prefix.
func newID(prefix string) string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is catastrophic; a constant ID keeps the
		// server serving (IDs are diagnostics, not security).
		return prefix + "-00000000"
	}
	return prefix + "-" + hex.EncodeToString(b[:])
}

// hashKey renders a stable content-hash cache key from parts.
func hashKey(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// processKey content-hashes a process description (the library cache key).
func processKey(proc *spatial.Process) string {
	if js, err := json.Marshal(proc); err == nil {
		return hashKey("process", string(js))
	}
	// A non-serializable custom kernel still needs a stable key.
	return hashKey("process", fmt.Sprintf("%g|%g|%g|%g|%s",
		proc.LNominal, proc.SigmaD2D, proc.SigmaWID, proc.SigmaVt, corrName(proc)))
}

// embeddingKey content-hashes the FFT torus embedding's inputs. The
// embedding reads only σ_WID, the kernel and the placement grid; the key
// hashes the whole process anyway, so it is a superset of those inputs.
func embeddingKey(proc *spatial.Process, rows, cols int, siteW, siteH float64) string {
	return hashKey("embedding", processKey(proc),
		fmt.Sprintf("%dx%d@%gx%g", rows, cols, siteW, siteH))
}

func corrName(proc *spatial.Process) string {
	if proc.WIDCorr == nil {
		return "none"
	}
	return proc.WIDCorr.Name()
}

func msToDuration(ms int) time.Duration {
	return time.Duration(ms) * time.Millisecond
}
