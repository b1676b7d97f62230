// Package server implements leakestd, the estimation service: a concurrent
// HTTP/JSON front end over the leakest estimator with four robustness
// layers —
//
//  1. admission control and load shedding: a semaphore-bounded worker pool
//     whose queue depth feeds the estimator's EstimateBudget degradation
//     ladder, so overload is answered with progressively cheaper estimators
//     (O(n²) → O(n) → O(1)) before any request is refused, and refusal
//     (HTTP 429 + Retry-After) happens only past a hard queue cap;
//  2. a content-hashed artifact cache with singleflight semantics for the
//     expensive shared artifacts (characterized libraries, FFT torus
//     embeddings, parsed+placed netlists);
//  3. a per-request lifecycle: request IDs, deadlines, an asynchronous job
//     queue with progress reporting and cancellation;
//  4. graceful shutdown that drains in-flight work under a deadline, plus
//     fault-injection hardening at the cache-fill and job-execution sites.
//
// See DESIGN.md §12 for the admission→budget-ladder mapping and the cache
// key scheme.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"leakest"
	"leakest/internal/chipmc"
	"leakest/internal/fault"
	"leakest/internal/lkerr"
	"leakest/internal/randvar"
	"leakest/internal/spatial"
	"leakest/internal/telemetry"
)

// Config parameterizes a Server.
type Config struct {
	// Workers is the estimation worker-pool size (default GOMAXPROCS is
	// deliberately NOT used: estimation is CPU-bound, so the default is 2).
	Workers int
	// QueueCap is the hard cap on requests waiting for a worker; beyond it
	// requests are shed with 429 (default 4×Workers).
	QueueCap int
	// MaxJobs caps live (queued+running) asynchronous jobs (default 64).
	MaxJobs int
	// DefaultTimeout bounds a request that sets no timeout_ms (default 60s).
	DefaultTimeout time.Duration
	// Cells is the transistor-level cell set characterized per process
	// (default the full built-in library).
	Cells []*leakest.Cell
	// CharMCSamples overrides the characterization MC sample count
	// (0 = library default; lower it for fast starts and tests).
	CharMCSamples int
	// EstimatorWorkers is the per-request goroutine count inside the
	// estimator loops; the admission pool provides cross-request
	// parallelism, so the default is 1.
	EstimatorWorkers int
}

func (c *Config) setDefaults() {
	if c.Workers < 1 {
		c.Workers = 2
	}
	if c.QueueCap < 1 {
		c.QueueCap = 4 * c.Workers
	}
	if c.MaxJobs < 1 {
		c.MaxJobs = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.Cells == nil {
		c.Cells = leakest.BuiltinCells()
	}
	if c.EstimatorWorkers < 1 {
		c.EstimatorWorkers = 1
	}
}

// keepJobs caps retained finished jobs, and cacheEntries caps completed
// artifact-cache entries.
const (
	keepJobs     = 256
	cacheEntries = 64
)

// execFn runs an admitted request; it is a seam so admission tests can
// substitute deterministic work.
type execFn func(ctx context.Context, req *EstimateRequest, id string, lvl loadLevel, depth int) (*EstimateResponse, error)

// Server is the leakestd HTTP service.
type Server struct {
	cfg   Config
	adm   *admission
	cache *artifactCache
	jobs  *jobSet
	mux   *http.ServeMux
	rec   *telemetry.FlightRecorder

	// baseCtx is the server lifetime: cache fills and job contexts derive
	// from it, so Shutdown's final cancel unwinds everything in flight.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	draining   atomic.Bool
	wg         sync.WaitGroup // in-flight requests and jobs, for draining

	exec execFn
}

// New builds a Server. Telemetry is enabled (the service exposes /metrics),
// and so is the flight recorder: every request's trace is retained per the
// default RecorderConfig and served under /debug/traces.
func New(cfg Config) *Server {
	cfg.setDefaults()
	telemetry.Enable()
	s := &Server{
		cfg:   cfg,
		adm:   newAdmission(cfg.Workers, cfg.QueueCap),
		cache: newArtifactCache(cacheEntries),
		jobs:  newJobSet(cfg.MaxJobs, keepJobs),
		rec:   telemetry.EnableFlightRecorder(),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.exec = s.runEstimate

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/estimate", s.handleEstimate)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	tmux := telemetry.NewMux(telemetry.Default())
	mux.Handle("/metrics", tmux)
	mux.Handle("/debug/", tmux)
	s.mux = mux
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Workers returns the resolved size of the estimation worker pool.
func (s *Server) Workers() int { return s.cfg.Workers }

// Shutdown drains the server: new work is refused with 503 immediately,
// in-flight requests and jobs get until ctx's deadline to finish, then the
// server lifetime is canceled so remaining work unwinds through the typed
// cancellation paths. A nil error means everything drained (possibly after
// the forced cancel).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.baseCancel()
		return nil
	case <-ctx.Done():
	}
	// Deadline passed with work still in flight: force-cancel and give the
	// cancellation paths a short grace to unwind.
	s.baseCancel()
	select {
	case <-done:
		return nil
	case <-time.After(5 * time.Second):
		return lkerr.New(lkerr.DeadlineExceeded, "server.Shutdown",
			"in-flight work did not unwind after forced cancel")
	}
}

// workCtx derives the context an admitted request runs under: the caller's
// context bounded by the request deadline, and additionally canceled when
// the server lifetime ends (forced shutdown).
func (s *Server) workCtx(parent context.Context, req *EstimateRequest) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		d = msToDuration(req.TimeoutMS)
	}
	ctx, cancel := context.WithTimeout(parent, d)
	stop := context.AfterFunc(s.baseCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// process admits the request to a worker and runs it. The admission level's
// load budget is applied inside exec.
func (s *Server) process(ctx context.Context, req *EstimateRequest, id string) (*EstimateResponse, error) {
	release, lvl, depth, err := s.adm.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	return s.exec(ctx, req, id, lvl, depth)
}

// ---------------------------------------------------------------- handlers

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	id := newID("r")
	w.Header().Set("X-Request-Id", id)
	if s.draining.Load() {
		writeError(w, id, http.StatusServiceUnavailable,
			&ErrorInfo{Code: "draining", Message: "server is shutting down"})
		return
	}
	req, err := decodeRequest(w, r)
	if err != nil {
		writeTypedError(w, id, err)
		return
	}
	s.wg.Add(1)
	defer s.wg.Done()
	ctx, cancel := s.workCtx(r.Context(), req)
	defer cancel()
	// The request-scoped trace: named by the request ID, threaded through
	// every pipeline stage, recorded into the flight recorder whatever the
	// outcome, and linked from the latency histogram as an exemplar.
	tr := telemetry.NewTrace()
	tr.SetID(id)
	ctx = telemetry.WithTrace(ctx, tr)
	ctx, endReq := telemetry.WithSpan(ctx, "server.request")
	start := time.Now()
	resp, err := s.process(ctx, req, id)
	endReq()
	telemetry.ObserveSecondsEx("server_request_duration_seconds", time.Since(start).Seconds(), id)
	snap := s.recordTrace(tr, resp, err)
	if err != nil {
		writeTypedError(w, id, err)
		return
	}
	resp.RequestID = id
	resp.Trace = &snap
	writeJSON(w, http.StatusOK, resp)
}

// recordTrace classifies the request outcome onto the trace, records it in
// the flight recorder, and returns the snapshot for the response body.
func (s *Server) recordTrace(tr *telemetry.Trace, resp *EstimateResponse, err error) telemetry.TraceSnapshot {
	switch {
	case err != nil && lkerr.IsCode(err, lkerr.Canceled):
		tr.SetOutcome("canceled")
	case err != nil:
		tr.SetOutcome("error")
	case resp != nil && resp.Result.Degraded:
		tr.SetOutcome("degraded")
	default:
		tr.SetOutcome("ok")
	}
	snap := tr.Snapshot()
	s.rec.Record(snap)
	return snap
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	id := newID("j")
	w.Header().Set("X-Request-Id", id)
	if s.draining.Load() {
		writeError(w, id, http.StatusServiceUnavailable,
			&ErrorInfo{Code: "draining", Message: "server is shutting down"})
		return
	}
	req, err := decodeRequest(w, r)
	if err != nil {
		writeTypedError(w, id, err)
		return
	}
	// The job context derives from the server lifetime, not the submitting
	// HTTP request: the submitter disconnecting must not cancel the job.
	ctx, cancel := s.workCtx(s.baseCtx, req)
	j := &job{id: id, req: req, state: stateQueued, cancel: cancel, done: make(chan struct{})}
	if err := s.jobs.add(j); err != nil {
		cancel()
		writeTypedError(w, id, err)
		return
	}
	ctx = telemetry.WithProgress(ctx, j.onProgress)
	// The job trace mirrors the synchronous request trace, named by the job
	// ID so GET /debug/traces/{job-id} resolves after completion.
	tr := telemetry.NewTrace()
	tr.SetID(id)
	ctx = telemetry.WithTrace(ctx, tr)
	// The 202 reports the job as accepted: snapshot it before it can run.
	snap := j.snapshot()
	s.wg.Add(1)
	go s.runJob(ctx, cancel, j, tr)
	writeJSON(w, http.StatusAccepted, snap)
}

// runJob executes one asynchronous job through the shared admission pool.
func (s *Server) runJob(ctx context.Context, cancel context.CancelFunc, j *job, tr *telemetry.Trace) {
	defer s.wg.Done()
	defer cancel()
	ctx, endJob := telemetry.WithSpan(ctx, "server.job")
	resp, err := s.executeJob(ctx, j)
	endJob()
	snap := s.recordTrace(tr, resp, err)
	if resp != nil {
		resp.Trace = &snap
	}
	j.setTrace(&snap)
	j.finish(resp, err)
}

// executeJob is the fault-instrumented job body: tests inject failures and
// panics at the job-exec site to prove a dying job lands in the failed state
// with a typed error instead of wedging the pool.
func (s *Server) executeJob(ctx context.Context, j *job) (resp *EstimateResponse, err error) {
	defer lkerr.RecoverInto(&err, "server.job")
	if !j.setRunning() {
		return nil, lkerr.New(lkerr.Canceled, "server.job", "job canceled before start")
	}
	fault.Hit(fault.SiteJobExec)
	if ferr := fault.Failure(fault.SiteJobExec); ferr != nil {
		return nil, lkerr.Wrap(lkerr.Numerical, "server.job", ferr)
	}
	resp, err = s.process(ctx, j.req, j.id)
	if err == nil {
		resp.RequestID = j.id
	}
	return resp, err
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, "", http.StatusNotFound,
			&ErrorInfo{Code: "not-found", Message: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, "", http.StatusNotFound,
			&ErrorInfo{Code: "not-found", Message: "no such job"})
		return
	}
	j.cancel()
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ------------------------------------------------------------- estimation

// benchArtifact is the cached parse+place of a .bench submission.
type benchArtifact struct {
	nl *leakest.Netlist
	pl *leakest.Placement
}

// runEstimate is the default execFn: resolve cached artifacts, apply the
// tighter of the request's and the load level's budgets, estimate, and
// cross-check the served moments.
func (s *Server) runEstimate(ctx context.Context, req *EstimateRequest, id string, lvl loadLevel, depth int) (*EstimateResponse, error) {
	telemetry.SpanAttrStr(ctx, "admission.level", lvl.String())
	telemetry.SpanAttrInt(ctx, "admission.queue_depth", int64(depth))
	proc := req.Process
	if proc == nil {
		proc = spatial.Default90nm()
	}

	// Artifact 1: the characterized library for this process.
	libAny, err := s.cache.get(ctx, "library", processKey(proc), func() (any, error) {
		return leakest.CharacterizeContext(s.baseCtx, s.cfg.Cells, leakest.CharConfig{
			Process:   proc,
			Seed:      20070604,
			MCSamples: s.cfg.CharMCSamples,
		})
	})
	if err != nil {
		return nil, err
	}
	lib := libAny.(*leakest.Library)
	est, err := leakest.NewEstimator(lib, proc)
	if err != nil {
		return nil, lkerr.Wrap(lkerr.InvalidInput, "server.estimate", err)
	}
	est.Workers = s.cfg.EstimatorWorkers
	est.ApplyVtMean = req.Vt == nil || *req.Vt
	if req.Tiles != nil {
		est.Tiles = req.Tiles.T
	}

	// Artifact 2 (late mode): the parsed and placed netlist.
	var bench *benchArtifact
	if req.Bench != "" {
		name := req.Name
		if name == "" {
			name = "design"
		}
		seed := req.Seed
		if seed == 0 {
			seed = 1
		}
		key := hashKey("bench", req.Bench, name, strconv.FormatInt(seed, 10))
		benchAny, err := s.cache.get(ctx, "netlist", key, func() (any, error) {
			nl, err := leakest.ReadBench(strings.NewReader(req.Bench), name)
			if err != nil {
				return nil, lkerr.Wrap(lkerr.InvalidInput, "server.bench", err)
			}
			pl, err := leakest.AutoPlace(nl, seed)
			if err != nil {
				return nil, err
			}
			return &benchArtifact{nl: nl, pl: pl}, nil
		})
		if err != nil {
			return nil, err
		}
		bench = benchAny.(*benchArtifact)
	}

	design, err := s.resolveDesign(est, req, bench)
	if err != nil {
		return nil, err
	}

	// The budget in force: the stricter of the request's own and the one
	// the admission level imposes. The estimator's degradation ladder turns
	// it into the cheapest admissible method, recording reasons.
	est.Budget = tighten(req.budget(), lvl.loadBudget())

	var res leakest.Result
	if req.Truth {
		res, err = est.TrueLeakageContext(ctx, bench.nl, bench.pl, design.SignalProb)
	} else {
		method, _ := leakest.ParseMethod(orDefault(req.Method, "auto"))
		res, err = est.EstimateContext(ctx, design, method)
	}
	if err != nil {
		return nil, err
	}

	resp := &EstimateResponse{
		Result: resultBody(res),
		Admission: AdmissionBody{
			Level:         lvl.String(),
			QueueDepth:    depth,
			BudgetImposed: lvl != levelNormal,
		},
	}
	resp.Result.Tiles = len(res.TileStats)
	if req.Tiles != nil && req.Tiles.PerTile {
		resp.Result.TileStats = res.TileStats
	}

	// Optional Monte Carlo, with the FFT torus embedding served from the
	// artifact cache when the FFT path will run. Heavy load skips MC: the
	// analytic estimate above is the degraded-but-correct answer.
	if req.MCSamples > 0 {
		if lvl >= levelHeavy {
			resp.Result.Note = appendNote(resp.Result.Note, "monte carlo skipped under load")
		} else {
			mc, err := s.runMonteCarlo(ctx, est, req, proc, bench, design.SignalProb)
			if err != nil {
				return nil, err
			}
			resp.MonteCarlo = mc
		}
	}

	resp.Conformance = s.conformance(ctx, est, design, res)
	return resp, nil
}

// resolveDesign produces the design spec for either request shape: the
// placed bench netlist's extracted characteristics, or the request's own.
// An omitted signal probability selects the conservative leakage-maximizing
// setting, computed from the design's histogram in both modes; the
// estimate, the truth and the Monte Carlo all run at the resolved value.
func (s *Server) resolveDesign(est *leakest.Estimator, req *EstimateRequest, bench *benchArtifact) (leakest.Design, error) {
	var design leakest.Design
	if bench != nil {
		var err error
		if design, err = est.ExtractDesign(bench.nl, bench.pl, 0); err != nil {
			return leakest.Design{}, err
		}
	} else {
		hist, err := leakest.NewHistogram(req.Design.Hist)
		if err != nil {
			return leakest.Design{}, err
		}
		design = leakest.Design{Hist: hist, N: req.Design.N, W: req.Design.W, H: req.Design.H}
	}
	if req.SignalProb != nil {
		design.SignalProb = *req.SignalProb
		return design, nil
	}
	sp, err := est.MaxLeakageSignalProb(design.Hist)
	if err != nil {
		return leakest.Design{}, err
	}
	design.SignalProb = sp
	return design, nil
}

// runMonteCarlo attaches a full-chip MC run at the resolved signal
// probability sp. chipmc.Plan validates the run and resolves its route
// first, so a request chipmc would refuse fails before any artifact is
// built, and the cached FFT embedding is pre-warmed exactly when the route
// samples it.
func (s *Server) runMonteCarlo(ctx context.Context, est *leakest.Estimator, req *EstimateRequest, proc *spatial.Process, bench *benchArtifact, sp float64) (*MCBody, error) {
	sampler, err := leakest.ParseSampler(orDefault(req.Sampler, "auto"))
	if err != nil {
		return nil, err
	}
	cfg := chipmc.Config{
		Lib:        est.Library(),
		Proc:       proc,
		SignalProb: sp,
		Samples:    req.MCSamples,
		Seed:       orDefaultI64(req.Seed, 1),
		Workers:    s.cfg.EstimatorWorkers,
		Sampler:    sampler,
	}
	if req.Tiles != nil {
		cfg.Tiles = req.Tiles.T
	}
	if req.Tail != nil {
		cfg.Tail = req.Tail.config()
	}
	route, err := chipmc.Plan(cfg, len(bench.nl.Gates), bench.pl.Grid)
	if err != nil {
		return nil, err
	}
	// Artifact 3: the FFT torus embedding, shared across requests hitting
	// the same (process, grid).
	if route.Embedding {
		g := bench.pl.Grid
		gsAny, gerr := s.cache.get(ctx, "embedding",
			embeddingKey(proc, g.Rows, g.Cols, g.SiteW, g.SiteH),
			func() (any, error) { return randvar.NewGridSampler(proc, g) })
		if gerr == nil {
			cfg.Prebuilt = gsAny.(*randvar.GridSampler)
		}
		// A failed embedding fill is not fatal here: chipmc rebuilds or
		// falls back per its own sampler policy.
	}
	mc, err := chipmc.RunContext(ctx, cfg, bench.nl, bench.pl)
	if err != nil {
		return nil, err
	}
	return &MCBody{Mean: mc.Mean, Std: mc.Std, Q05: mc.Q05, Q95: mc.Q95, Samples: mc.Samples, Tail: mc.Tail}, nil
}

// conformance cross-checks the served moments against cheaper estimators:
// the mean against the method-independent closed form (all estimators share
// it, so agreement is tight), and — when an exact rung served — the σ
// against the constant-time integral (loose envelope: the continuum
// approximation differs from the exact sum by design). Failures never fail
// the request; they are reported in the response and counted.
func (s *Server) conformance(ctx context.Context, est *leakest.Estimator, design leakest.Design, served leakest.Result) *ConformanceBody {
	const (
		meanTol = 1e-6
		stdTol  = 0.35
	)
	// The reference rungs (naive, polar) always run as asked and
	// monolithically: they exist to cross-check the served moments, a
	// budget would send both down the ladder, and the tiled linear is
	// bitwise identical to the monolithic one anyway. One
	// server.conformance span times them; they run off the request's
	// trace, whose estimate, model and estimator spans they would repeat.
	ctx, end := telemetry.WithSpan(ctx, "server.conformance")
	defer end()
	ctx = telemetry.WithTrace(ctx, nil)
	ref := *est
	ref.Tiles, ref.Budget = 0, leakest.EstimateBudget{}
	naive, err := ref.EstimateContext(ctx, design, leakest.Naive)
	if err != nil {
		return &ConformanceBody{Status: "skipped", Detail: "reference failed: " + err.Error()}
	}
	body := &ConformanceBody{Status: "ok", Reference: "naive-mean"}
	body.MeanRelDev = relDev(served.Mean, naive.Mean)
	if body.MeanRelDev > meanTol {
		body.Status = "mismatch"
		body.Detail = fmt.Sprintf("mean deviates %.3g from closed form", body.MeanRelDev)
	}
	// σ check only when an exact rung served; the O(1) rung IS the
	// reference, and naive σ ignores correlation entirely.
	if served.Method == "linear" || served.Method == "linear-tiled" || served.Method == "true-n2" {
		iref, err := ref.EstimateContext(ctx, design, leakest.Polar)
		if err == nil {
			body.Reference = "naive-mean+integral-std"
			body.StdRelDev = relDev(served.Std, iref.Std)
			if body.StdRelDev > stdTol {
				body.Status = "mismatch"
				body.Detail = appendNote(body.Detail,
					fmt.Sprintf("σ deviates %.3g from integral", body.StdRelDev))
			}
		}
	}
	if body.Status == "mismatch" {
		telemetry.Inc("server_conformance_mismatch_total")
	}
	return body
}

// ---------------------------------------------------------------- helpers

func relDev(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return 1
	}
	d := (a - b) / b
	if d < 0 {
		return -d
	}
	return d
}

func orDefault(s, d string) string {
	if s == "" {
		return d
	}
	return s
}

func orDefaultI64(v, d int64) int64 {
	if v == 0 {
		return d
	}
	return v
}

func appendNote(existing, extra string) string {
	if existing == "" {
		return extra
	}
	return existing + "; " + extra
}

// -------------------------------------------------------------- transport

// maxBodyBytes bounds request bodies (netlists included).
const maxBodyBytes = 16 << 20

func decodeRequest(w http.ResponseWriter, r *http.Request) (*EstimateRequest, error) {
	var req EstimateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		return nil, lkerr.New(lkerr.InvalidInput, "server.decode", "bad request body: %v", err)
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	telemetry.Inc(telemetry.Label("server_requests_total", "code", strconv.Itoa(code)))
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, id string, code int, info *ErrorInfo) {
	if info.RetryAfterS > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(info.RetryAfterS))
	}
	writeJSON(w, code, ErrorBody{RequestID: id, Error: *info})
}

// writeTypedError maps the typed error taxonomy onto HTTP statuses.
func writeTypedError(w http.ResponseWriter, id string, err error) {
	var shed *errShed
	if errors.As(err, &shed) {
		writeError(w, id, http.StatusTooManyRequests, &ErrorInfo{
			Code:        "overloaded",
			Message:     "queue full, retry later",
			RetryAfterS: shed.retryAfterS,
		})
		return
	}
	code := http.StatusInternalServerError
	switch lkerr.CodeOf(err) {
	case lkerr.InvalidInput:
		code = http.StatusBadRequest
	case lkerr.DeadlineExceeded:
		code = http.StatusGatewayTimeout
	case lkerr.Canceled:
		code = http.StatusServiceUnavailable
	case lkerr.BudgetExceeded:
		code = http.StatusUnprocessableEntity
	}
	writeError(w, id, code, &ErrorInfo{Code: errorCodeString(err), Message: err.Error()})
}
