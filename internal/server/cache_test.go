package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leakest/internal/fault"
	"leakest/internal/lkerr"
	"leakest/internal/telemetry"
)

// counterDelta runs fn and returns the change of the named counter.
func counterDelta(t *testing.T, name string, fn func()) int64 {
	t.Helper()
	r := telemetry.Enable()
	before := r.Counter(name).Value()
	fn()
	return r.Counter(name).Value() - before
}

func TestCacheSingleflight(t *testing.T) {
	c := newArtifactCache(8)
	var fills atomic.Int64
	release := make(chan struct{})
	const waiters = 16

	var wg sync.WaitGroup
	vals := make([]any, waiters)
	hits := counterDelta(t, telemetry.Label("server_cache_hits_total", "artifact", "x"), func() {
		for i := 0; i < waiters; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				v, err := c.get(context.Background(), "x", "k", func() (any, error) {
					fills.Add(1)
					<-release
					return 42, nil
				})
				if err != nil {
					t.Errorf("waiter %d: %v", i, err)
				}
				vals[i] = v
			}(i)
		}
		// Let every waiter either start the fill or join it, then release.
		time.Sleep(50 * time.Millisecond)
		close(release)
		wg.Wait()
	})
	if got := fills.Load(); got != 1 {
		t.Fatalf("fill ran %d times for %d concurrent gets, want exactly 1", got, waiters)
	}
	for i, v := range vals {
		if v != 42 {
			t.Fatalf("waiter %d got %v, want 42", i, v)
		}
	}
	if hits != waiters-1 {
		t.Errorf("server_cache_hits_total{artifact=x} += %d, want %d", hits, waiters-1)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := newArtifactCache(8)
	boom := errors.New("boom")
	if _, err := c.get(context.Background(), "x", "k", func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	// A failed fill must not poison the key: the next get refills.
	v, err := c.get(context.Background(), "x", "k", func() (any, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("refill after error: got %v, %v", v, err)
	}
}

func TestCachePanicIsTypedAndRecoverable(t *testing.T) {
	c := newArtifactCache(8)
	_, err := c.get(context.Background(), "x", "k", func() (any, error) { panic("fill exploded") })
	if !errors.Is(err, lkerr.ErrNumerical) {
		t.Fatalf("panicking fill: got %v, want typed Numerical", err)
	}
	v, err := c.get(context.Background(), "x", "k", func() (any, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("refill after panic: got %v, %v", v, err)
	}
}

func TestCacheInjectedFillFault(t *testing.T) {
	defer fault.Reset()
	c := newArtifactCache(8)
	fault.Arm(fault.SiteCacheFill, fault.Action{Kind: fault.Error})
	_, err := c.get(context.Background(), "x", "k", func() (any, error) { return 1, nil })
	if !errors.Is(err, lkerr.ErrNumerical) {
		t.Fatalf("injected fill failure: got %v, want typed Numerical", err)
	}
	fault.Reset()
	v, err := c.get(context.Background(), "x", "k", func() (any, error) { return 1, nil })
	if err != nil || v != 1 {
		t.Fatalf("after clearing the fault: got %v, %v", v, err)
	}
}

func TestCacheWaiterHonorsContext(t *testing.T) {
	c := newArtifactCache(8)
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _ = c.get(context.Background(), "x", "k", func() (any, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.get(ctx, "x", "k", func() (any, error) { return 1, nil })
	if !errors.Is(err, lkerr.ErrCanceled) {
		t.Fatalf("canceled waiter: got %v, want typed Canceled", err)
	}
	close(release)
}

func TestCacheEviction(t *testing.T) {
	c := newArtifactCache(2)
	for _, k := range []string{"a", "b", "c"} {
		if _, err := c.get(context.Background(), "x", k, func() (any, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(c.order); got != 2 {
		t.Fatalf("cache holds %d completed entries, want 2 (oldest evicted)", got)
	}
	// The oldest key was evicted: getting it again refills.
	fills := 0
	if _, err := c.get(context.Background(), "x", "a", func() (any, error) { fills++; return "a", nil }); err != nil {
		t.Fatal(err)
	}
	if fills != 1 {
		t.Fatalf("evicted key served from cache (fills=%d), want refill", fills)
	}
}
