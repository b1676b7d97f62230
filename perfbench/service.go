package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"time"

	"leakest"
	"leakest/internal/cells"
	"leakest/internal/server"
	"leakest/internal/telemetry"
)

// The service workload: the leakestd handler (server.New) behind a
// loopback listener, driven by two closed-loop clients against two server
// workers, so admission never queues and no response is degraded by
// timing. The mix is mostly early-mode design requests (1e5–1e6 gates;
// linear, integral, polar, tiled), plus .bench submissions with truth,
// with mc_samples, and re-submissions of a bench already placed. Each bench
// fills the artifact cache once, in the first cycle, and hits after.
// Admission, the artifact cache, JSON decode/encode and the per-response
// trace are measured here only.

const (
	svcClients = 2
	svcWorkers = 2
)

type svcReq struct {
	kind  string // linear | integral | polar | tiled | truth | mc | repeat
	req   server.EstimateRequest
	body  []byte
	bench int // index into the bench texts, -1 for design requests
}

type svcBench struct {
	name string
	n    int
	text string
}

// servicePlan is the seed's cycle: bench sizes (texts are written in
// setup) and the requests in order.
func servicePlan(seed int64) ([]svcBench, []svcReq, error) {
	rng := newRNG(seed, "service")
	_, weights, err := designHist(seed, "service/hist")
	if err != nil {
		return nil, nil, err
	}
	sp := 0.5
	var linear, integral, polar, tiled, truth, mc, repeat []svcReq
	for j, n := range logSizes(80, 1e5, 1e6) {
		side := 4000 * math.Pow(float64(n)/1e5, 0.2)
		r := svcReq{bench: -1, req: server.EstimateRequest{
			Design:     &server.DesignRequest{Hist: weights, N: n, W: side, H: side},
			SignalProb: &sp,
		}}
		switch {
		case j%5 == 1:
			r.kind, r.req.Method = "integral", "integral"
			integral = append(integral, r)
		case j%5 == 3:
			r.kind, r.req.Method = "polar", "polar"
			polar = append(polar, r)
		case j%5 == 4:
			r.kind, r.req.Method = "tiled", "linear"
			r.req.Tiles = &server.TilesRequest{T: rankTiles(j, 80, 2, 8)}
			tiled = append(tiled, r)
		default:
			r.kind, r.req.Method = "linear", "linear"
			linear = append(linear, r)
		}
	}
	var benches []svcBench
	addBench := func(kind string, sizes []int) []svcReq {
		var out []svcReq
		for _, n := range sizes {
			b := len(benches)
			benches = append(benches, svcBench{name: fmt.Sprintf("b%d", b), n: n})
			out = append(out, svcReq{kind: kind, bench: b, req: server.EstimateRequest{
				Name: benches[b].name, Seed: seed*100 + int64(b), Method: "linear", SignalProb: &sp,
			}})
		}
		return out
	}
	truth = addBench("truth", logSizes(16, 500, 2500))
	for k := range truth {
		truth[k].req.Truth = true
	}
	mc = addBench("mc", logSizes(16, 200, 500))
	for k := range mc {
		mc[k].req.MCSamples = 100
	}
	for k := range truth {
		r := truth[k]
		r.kind, r.req.Truth = "repeat", false
		repeat = append(repeat, r)
	}
	return benches, balance(rng, linear, integral, polar, tiled, truth, mc, repeat), nil
}

type serviceWL struct {
	b       *bench
	lib     *leakest.Library
	benches []svcBench
	cycle   []svcReq
	srv     *server.Server
	hs      *http.Server
	served  chan struct{}
	url     string
	client  *http.Client
}

type svcOut struct {
	req     int // index into the cycle
	status  int
	resp    server.EstimateResponse
	latency time.Duration
}

func (w *serviceWL) clients() int   { return svcClients }
func (w *serviceWL) tailQ() float64 { return 0.95 }

// setup characterizes the benchmark's reference library, writes the bench
// texts, starts a fresh server on a loopback port and sends the first
// request; the round ends at its 200.
func (w *serviceWL) setup(ctx context.Context) error {
	w.close()
	lib, err := characterize(ctx)
	if err != nil {
		return err
	}
	w.lib = lib
	hist, _, err := designHist(w.b.seed, "service/hist")
	if err != nil {
		return err
	}
	if w.benches, w.cycle, err = servicePlan(w.b.seed); err != nil {
		return err
	}
	for k := range w.benches {
		bn := &w.benches[k]
		nl, err := leakest.RandomCircuit(lib, w.b.seed, bn.name, bn.n, max(8, bn.n/16), hist)
		if err != nil {
			return err
		}
		var sb strings.Builder
		if err := leakest.WriteBench(&sb, nl); err != nil {
			return err
		}
		bn.text = sb.String()
	}
	for k := range w.cycle {
		r := &w.cycle[k]
		if r.bench >= 0 {
			r.req.Bench = w.benches[r.bench].text
		}
		if r.body, err = json.Marshal(r.req); err != nil {
			return err
		}
	}

	w.srv = server.New(server.Config{
		Workers:          svcWorkers,
		EstimatorWorkers: 1,
		Cells:            cells.ISCASSubset(),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.url = "http://" + ln.Addr().String() + "/v1/estimate"
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan struct{})
	go func(hs *http.Server, done chan struct{}) {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed once close shuts it down
	}(w.hs, w.served)
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: svcClients}}
	return nil
}

// close stops the server, if one runs, and waits for its serve loop.
func (w *serviceWL) close() {
	if w.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w.client.CloseIdleConnections()
	_ = w.hs.Shutdown(ctx)
	_ = w.srv.Shutdown(ctx)
	<-w.served
	w.hs = nil
}

func (w *serviceWL) do(ctx context.Context, i int) (any, error) {
	k := i % len(w.cycle)
	r := w.cycle[k]
	var n int
	if r.bench >= 0 {
		n = w.benches[r.bench].n
	} else {
		n = r.req.Design.N
	}
	ctx, end := opSpan(ctx, r.kind, n)
	defer end()
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url, bytes.NewReader(w.cycle[k].body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	out := svcOut{req: k, status: res.StatusCode}
	if res.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(res.Body)
		return out, fmt.Errorf("status %d: %s", res.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(res.Body).Decode(&out.resp); err != nil {
		return nil, err
	}
	out.latency = time.Since(start)
	if tr, root := telemetry.SpanContext(ctx); tr != nil && out.resp.Trace != nil {
		graftSpans(tr, root, *out.resp.Trace)
	}
	return out, nil
}

// check requires a 200, the normal admission level with nothing queued,
// an undegraded result, conformance "ok", and moments equal to the library
// call for the same request (exactTol: JSON carries float64 exactly).
func (w *serviceWL) check(ctx context.Context, outs []opOut, p perturb) []bool {
	perturb := p.scale("sigma")
	refs := map[int]*server.EstimateResponse{}
	ok := make([]bool, len(outs))
	for k, o := range outs {
		out, good := o.out.(svcOut)
		if o.err != nil || !good {
			continue
		}
		r := w.cycle[out.req]
		ref, seen := refs[out.req]
		if !seen {
			var err error
			if ref, err = w.reference(ctx, r); err != nil {
				ok[k] = failf(o.i, "reference: %v", err)
				continue
			}
			refs[out.req] = ref
		}
		got := out.resp
		ok[k] = true
		switch {
		case out.status != http.StatusOK:
			ok[k] = failf(o.i, "status %d", out.status)
		case got.Admission.Level != "normal" || got.Admission.QueueDepth > 0 || got.Admission.BudgetImposed:
			ok[k] = failf(o.i, "queued: admission %+v", got.Admission)
		case got.Result.Degraded:
			ok[k] = failf(o.i, "degraded: %s", got.Result.DegradeReason)
		case got.Conformance == nil || got.Conformance.Status != "ok":
			ok[k] = failf(o.i, "conformance %+v", got.Conformance)
		case got.Result.Method != ref.Result.Method ||
			relDiff(got.Result.Std*perturb, ref.Result.Std) > exactTol ||
			relDiff(got.Result.Mean, ref.Result.Mean) > exactTol:
			ok[k] = failf(o.i, "%s result %s (%g, %g) differs from library %s (%g, %g)", r.kind,
				got.Result.Method, got.Result.Mean, got.Result.Std*perturb, ref.Result.Method, ref.Result.Mean, ref.Result.Std)
		case (got.MonteCarlo == nil) != (ref.MonteCarlo == nil):
			ok[k] = failf(o.i, "monte carlo block presence differs from the request")
		case got.MonteCarlo != nil && (relDiff(got.MonteCarlo.Std*perturb, ref.MonteCarlo.Std) > exactTol ||
			relDiff(got.MonteCarlo.Mean, ref.MonteCarlo.Mean) > exactTol):
			ok[k] = failf(o.i, "monte carlo (%g, %g) differs from library (%g, %g)",
				got.MonteCarlo.Mean, got.MonteCarlo.Std*perturb, ref.MonteCarlo.Mean, ref.MonteCarlo.Std)
		}
	}
	return ok
}

// reference answers r with the library calls the server makes.
func (w *serviceWL) reference(ctx context.Context, r svcReq) (*server.EstimateResponse, error) {
	est, err := leakest.NewEstimator(w.lib, nil)
	if err != nil {
		return nil, err
	}
	est.Workers = 1
	est.ApplyVtMean = true
	sp := *r.req.SignalProb
	out := &server.EstimateResponse{}
	var res leakest.Result
	if r.bench < 0 {
		if r.req.Tiles != nil {
			est.Tiles = r.req.Tiles.T
		}
		h, err := leakest.NewHistogram(r.req.Design.Hist)
		if err != nil {
			return nil, err
		}
		d := leakest.Design{Hist: h, N: r.req.Design.N, W: r.req.Design.W, H: r.req.Design.H, SignalProb: sp}
		if res, err = est.EstimateContext(ctx, d, estMethods[r.kind]); err != nil {
			return nil, err
		}
		out.Result = server.ResultBody{Mean: res.Mean, Std: res.Std, Method: res.Method}
		return out, nil
	}
	nl, err := leakest.ReadBench(strings.NewReader(r.req.Bench), r.req.Name)
	if err != nil {
		return nil, err
	}
	pl, err := leakest.AutoPlace(nl, r.req.Seed)
	if err != nil {
		return nil, err
	}
	if r.req.Truth {
		res, err = est.TrueLeakageContext(ctx, nl, pl, sp)
	} else {
		res, err = est.EstimateNetlist(nl, pl, sp, leakest.Linear)
	}
	if err != nil {
		return nil, err
	}
	out.Result = server.ResultBody{Mean: res.Mean, Std: res.Std, Method: res.Method}
	if r.req.MCSamples > 0 {
		mc, err := est.MonteCarloContext(ctx, nl, pl, sp, r.req.MCSamples, r.req.Seed)
		if err != nil {
			return nil, err
		}
		out.MonteCarlo = &server.MCBody{Mean: mc.Mean, Std: mc.Std}
	}
	return out, nil
}

// layerExtras reads the server's own accounting from the responses: the
// artifact-cache hit ratio from the trace's cache attributes, the deepest
// admission queue seen, and the degraded responses.
func (w *serviceWL) layerExtras(outs []opOut) map[string]float64 {
	var hits, lookups, depth, degraded float64
	for _, o := range outs {
		out, good := o.out.(svcOut)
		if !good || out.resp.Trace == nil {
			continue
		}
		for _, s := range out.resp.Trace.Spans {
			for _, a := range s.Attrs {
				if !strings.HasPrefix(a.Key, "cache.") {
					continue
				}
				lookups++
				if a.Value == "hit" {
					hits++
				}
			}
		}
		depth = math.Max(depth, float64(out.resp.Admission.QueueDepth))
		if out.resp.Result.Degraded {
			degraded++
		}
	}
	ratio := 0.0
	if lookups > 0 {
		ratio = hits / lookups
	}
	return map[string]float64{"server.cache_hit_ratio": ratio, "server.queue_depth_max": depth, "server.degraded": degraded}
}
