// Package fault is a test-only fault-injection registry. Long-running
// kernels declare named injection sites; tests arm a site with a fault kind
// (NaN corruption, panic, slow iteration) to prove that every failure mode
// surfaces as the right typed error and never as a silent NaN result.
//
// Production cost is one atomic load per site hit: when nothing is armed —
// always, outside tests — every hook is a no-op. Arm refuses to run outside
// `go test` (it panics), so the registry cannot be abused as a runtime
// feature flag.
package fault

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Site names. Each constant marks one instrumented location.
const (
	// SiteCharState fires inside per-state cell characterization.
	SiteCharState = "charlib/characterize-state"
	// SiteCharMoments corrupts the Monte-Carlo moments of a characterized
	// state.
	SiteCharMoments = "charlib/mc-moments"
	// SiteCholesky fires at the start of a Cholesky factorization and can
	// corrupt its first pivot.
	SiteCholesky = "linalg/cholesky"
	// SiteChipMCTrial fires once per chip Monte-Carlo trial and can corrupt
	// the accumulated total.
	SiteChipMCTrial = "chipmc/trial"
	// SiteISWeight fires once per importance-sampled tail trial and can
	// corrupt its likelihood-ratio weight; armed with NaN it proves a
	// poisoned weight surfaces as a typed Numerical error, never a silent
	// NaN tail probability. (The conformance mutation self-check does NOT
	// use this site — Arm is test-only — it mis-weights via
	// chipmc.TailConfig.WeightScale instead.)
	SiteISWeight = "chipmc/is-weight"
	// SiteTruthRow fires once per gate of the true-leakage pass and can
	// corrupt the accumulated variance.
	SiteTruthRow = "core/truth-row"
	// SiteLinearAccum corrupts the linear estimator's covariance mass.
	SiteLinearAccum = "core/linear-accumulate"
	// SiteFFTSetup fires inside the chipmc.fft_setup stage; armed with Error
	// it makes the circulant-embedding construction report failure, driving
	// the documented dense-sampler fallback.
	SiteFFTSetup = "chipmc/fft-setup"
	// SiteGridEmbed fires at the start of the GridSampler embedding build
	// (panic / slow-setup faults for the torus-spectrum path).
	SiteGridEmbed = "randvar/grid-embed"
	// SiteCacheFill fires inside an estimation-server artifact-cache fill;
	// armed with Panic or Error it proves a failed fill surfaces as a typed
	// error to every singleflight waiter and is recomputed on the next miss.
	SiteCacheFill = "server/cache-fill"
	// SiteJobExec fires at the start of an estimation-server job execution;
	// armed with Panic it proves a crashing job is marked failed with a
	// typed error instead of wedging the worker pool.
	SiteJobExec = "server/job-exec"
)

// Kind selects the failure a site produces when armed.
type Kind int

const (
	// None leaves the site inert.
	None Kind = iota
	// NaN makes Corrupt return NaN at the site.
	NaN
	// Panic makes Hit panic at the site.
	Panic
	// Sleep makes Hit delay by Action.Delay at every firing — the "slow
	// iteration" fault for exercising deadlines.
	Sleep
	// Error makes Failure return an injected error at the site — the
	// "dependency failed" fault for exercising fallback paths.
	Error
)

// Action describes an armed fault.
type Action struct {
	Kind Kind
	// Delay is the per-hit pause for Sleep faults.
	Delay time.Duration
	// After delays firing until the site has been hit that many times
	// (0 = fire immediately). Lets tests corrupt mid-loop rather than at
	// entry.
	After int
}

type armed struct {
	action Action
	hits   atomic.Int64
}

var (
	enabled atomic.Bool // fast path: false unless something is armed
	mu      sync.RWMutex
	sites   map[string]*armed
)

// Arm activates a fault at the named site. It panics outside `go test`.
func Arm(site string, a Action) {
	if !testing.Testing() {
		panic("fault: Arm called outside tests")
	}
	mu.Lock()
	defer mu.Unlock()
	if sites == nil {
		sites = make(map[string]*armed)
	}
	sites[site] = &armed{action: a}
	enabled.Store(true)
}

// Reset disarms every site. Tests should defer it after arming.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	sites = nil
	enabled.Store(false)
}

// lookup returns the armed fault for a site if it is due to fire.
func lookup(site string) (Action, bool) {
	mu.RLock()
	ar := sites[site]
	mu.RUnlock()
	if ar == nil {
		return Action{}, false
	}
	n := ar.hits.Add(1)
	if int(n) <= ar.action.After {
		return Action{}, false
	}
	return ar.action, true
}

// Hit fires control-flow faults (Panic, Sleep) at a site. It is a no-op
// when the site is not armed.
func Hit(site string) {
	if !enabled.Load() {
		return
	}
	a, ok := lookup(site)
	if !ok {
		return
	}
	switch a.Kind {
	case Panic:
		panic("fault: injected panic at " + site)
	case Sleep:
		time.Sleep(a.Delay)
	}
}

// Failure returns an injected error when the site is armed with an Error
// fault, and nil otherwise. Callers fold it into their own error path:
//
//	if err == nil {
//		err = fault.Failure(fault.SiteFFTSetup)
//	}
func Failure(site string) error {
	if !enabled.Load() {
		return nil
	}
	if a, ok := lookup(site); ok && a.Kind == Error {
		return errors.New("fault: injected failure at " + site)
	}
	return nil
}

// Corrupt passes v through unless the site is armed with a NaN fault, in
// which case it returns NaN.
func Corrupt(site string, v float64) float64 {
	if !enabled.Load() {
		return v
	}
	if a, ok := lookup(site); ok && a.Kind == NaN {
		return math.NaN()
	}
	return v
}

// Hits reports how many times a site has fired since it was armed; it is 0
// for unarmed sites. Tests use it to assert a loop stopped early.
func Hits(site string) int {
	mu.RLock()
	defer mu.RUnlock()
	if ar := sites[site]; ar != nil {
		return int(ar.hits.Load())
	}
	return 0
}
