package server

import (
	"context"
	"sync"

	"leakest/internal/fault"
	"leakest/internal/lkerr"
	"leakest/internal/telemetry"
)

// artifactCache is a content-addressed cache with singleflight semantics:
// concurrent requests for the same key share one fill instead of duplicating
// the (expensive) characterization or FFT-embedding work. Successful fills
// are retained up to a completed-entry cap; failed fills are forgotten so
// the next request retries instead of serving a cached error.
//
// Artifacts cached by the server:
//
//	library   — characterized cell libraries, keyed by the process hash
//	embedding — FFT torus embeddings, keyed by (process, grid)
//	netlist   — parsed+placed .bench designs, keyed by (content hash, name, seed)
type artifactCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	order   []string // completed keys, oldest first, for eviction
	max     int      // cap on completed entries (0 = unbounded)
}

type cacheEntry struct {
	done chan struct{} // closed when the fill finishes
	val  any
	err  error
}

func newArtifactCache(max int) *artifactCache {
	return &artifactCache{entries: make(map[string]*cacheEntry), max: max}
}

// get returns the cached value for (artifact, key), filling it with fill on
// a miss. Concurrent callers with the same key block on the single in-flight
// fill. The fill runs on the caller's goroutine but is NOT bound to the
// caller's context: a waiter whose ctx expires gets the ctx error while the
// fill completes for everyone else. Panics inside fill surface as typed
// Numerical errors, and a failed fill is evicted immediately so a transient
// fault does not poison the cache.
func (c *artifactCache) get(ctx context.Context, artifact, key string, fill func() (any, error)) (any, error) {
	full := artifact + "\x00" + key
	c.mu.Lock()
	if e, ok := c.entries[full]; ok {
		c.mu.Unlock()
		telemetry.Inc(telemetry.Label("server_cache_hits_total", "artifact", artifact))
		telemetry.SpanAttrStr(ctx, "cache."+artifact, "hit")
		select {
		case <-e.done:
			return e.val, e.err
		case <-ctx.Done():
			return nil, lkerr.FromContext(ctx, "server.cache."+artifact)
		}
	}
	e := &cacheEntry{done: make(chan struct{})}
	c.entries[full] = e
	c.mu.Unlock()
	telemetry.Inc(telemetry.Label("server_cache_misses_total", "artifact", artifact))
	telemetry.SpanAttrStr(ctx, "cache."+artifact, "miss")

	e.val, e.err = c.fill(artifact, fill)

	c.mu.Lock()
	if e.err != nil {
		// Forget failed fills: the next request retries from scratch.
		delete(c.entries, full)
	} else {
		c.order = append(c.order, full)
		c.evictLocked()
	}
	c.mu.Unlock()
	close(e.done)
	return e.val, e.err
}

// fill runs the fill function under panic recovery and the cache-fill fault
// site (tests inject failures and panics here to prove waiters never wedge).
func (c *artifactCache) fill(artifact string, fn func() (any, error)) (val any, err error) {
	defer lkerr.RecoverInto(&err, "server.cache."+artifact)
	fault.Hit(fault.SiteCacheFill)
	if ferr := fault.Failure(fault.SiteCacheFill); ferr != nil {
		return nil, lkerr.Wrap(lkerr.Numerical, "server.cache."+artifact, ferr)
	}
	return fn()
}

// evictLocked drops the oldest completed entries beyond the cap. In-flight
// entries are never evicted (they are not in order yet).
func (c *artifactCache) evictLocked() {
	if c.max <= 0 {
		return
	}
	for len(c.order) > c.max {
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
	}
}
