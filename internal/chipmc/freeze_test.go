package chipmc

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strconv"
	"testing"

	"leakest/internal/fault"
	"leakest/internal/netlist"
	"leakest/internal/placement"
)

// freezeRoute is one row of the route-freeze table: a Config mutation on
// the shared fixture plus the routing knobs only tests can turn.
type freezeRoute struct {
	name string
	// mutate adjusts the base Config; spec is freezeSpec, for the rows that
	// estimate an exceedance.
	mutate func(c *Config, spec float64)
	// denseLimit overrides autoDenseLimit (0 keeps the default), routing the
	// 100-gate fixture to the grid fields.
	denseLimit int
	// embedFault injects an embedding failure, driving the dense fallback.
	embedFault bool
	// want is the frozen hash of the run's KeepTrials totals plus every
	// Result and TailStats field.
	want string
}

// freezeRoutes lists every Monte-Carlo route with the hash of its results.
// The fft, tiled and grid rows were last re-frozen when every grid route
// moved to Dietrich–Newsam pairs. The dense rows (dense, auto,
// auto-fallback, vt, qmc-dense and both dense tails) were re-frozen when
// the dense field began drawing its die-to-die deviate z₀ ahead of a
// within-die-only Cholesky field (z₀ on Sobol coordinate 0 on the qmc
// route). Regenerate only for a deliberate stream change:
// LEAKEST_FREEZE_PRINT=1 go test -run TestRouteFreeze.
var freezeRoutes = []freezeRoute{
	{name: "dense", mutate: func(c *Config, _ float64) { c.Sampler = SamplerDense },
		want: "a92827ff7871be96"},
	{name: "fft", mutate: func(c *Config, _ float64) { c.Sampler = SamplerFFT },
		want: "c03044cdeecd24a2"},
	{name: "fft-odd", mutate: func(c *Config, _ float64) { c.Sampler = SamplerFFT; c.Samples = 13 },
		want: "fc7eb6fc86e9a115"},
	{name: "auto", mutate: func(c *Config, _ float64) {},
		want: "a92827ff7871be96"},
	{name: "auto-grid", mutate: func(c *Config, _ float64) {}, denseLimit: 8,
		want: "c03044cdeecd24a2"},
	{name: "auto-fallback", mutate: func(c *Config, _ float64) { c.MaxGates = 128 },
		denseLimit: 8, embedFault: true,
		want: "a92827ff7871be96"},
	{name: "vt", mutate: func(c *Config, _ float64) { c.Sampler = SamplerDense; c.IncludeVt = true },
		want: "81d47cb50c45dd5b"},
	{name: "qmc-dense", mutate: func(c *Config, _ float64) { c.Sampler = SamplerQMC },
		want: "91ace2bb3017b5db"},
	// qmc-grid-b1 keeps the name it had when the grid-qmc field batched its
	// pairs: the field now always runs one pair (b1) per work item.
	{name: "qmc-grid-b1", mutate: func(c *Config, _ float64) { c.Sampler = SamplerQMC },
		denseLimit: 8, want: "456a76a26a9ce56f"},
	{name: "qmc-grid-vt", mutate: func(c *Config, _ float64) { c.Sampler = SamplerQMC; c.IncludeVt = true },
		denseLimit: 8, want: "4186b88d706f6c0a"},
	{name: "tiled-2", mutate: func(c *Config, _ float64) { c.Tiles = 2 },
		want: "279f4c54a23b552a"},
	{name: "tiled-3", mutate: func(c *Config, _ float64) { c.Tiles = 3; c.IncludeVt = true },
		want: "31ba3a72e9bf4940"},
	{name: "tail-dense", mutate: func(c *Config, spec float64) {
		c.Sampler = SamplerDense
		c.Tail = &TailConfig{Spec: spec, Quantiles: []float64{0.5, 0.9}, ISTrials: 64}
	}, want: "a21840eddba8abd0"},
	{name: "tail-grid", mutate: func(c *Config, spec float64) {
		c.Sampler = SamplerFFT
		c.IncludeVt = true
		c.Tail = &TailConfig{Spec: spec, Quantiles: []float64{0.5, 0.9}, ISTrials: 64}
	}, want: "74857818122c9c05"},
	{name: "tail-tiled", mutate: func(c *Config, spec float64) {
		c.Tiles = 2
		c.Tail = &TailConfig{Spec: spec, Quantiles: []float64{0.5, 0.9}, ISTrials: 63}
	}, want: "449541173c1dff50"},
	{name: "tail-qmc-dense", mutate: func(c *Config, spec float64) {
		c.Sampler = SamplerQMC
		c.Tail = &TailConfig{Spec: spec, ISTrials: 64}
	}, want: "d17a8344d4bdf101"},
	{name: "tail-qmc-grid", mutate: func(c *Config, spec float64) {
		c.Sampler = SamplerQMC
		c.Tail = &TailConfig{Spec: spec, ISTrials: 64}
	}, denseLimit: 8, want: "04c3dbe78a8cb0a8"},
}

// freezeSpec is the fixture's P ≈ 0.1 tail spec, the 0.9 quantile of a
// 400-trial dense probe, kept as a literal so that no route's hash depends
// on another route's stream.
const freezeSpec = 3.7030589902107175e-06

// TestRouteFreeze pins every Monte-Carlo route bitwise: each row's totals
// and summary must hash to the frozen value at 1, 3 and 8 workers. It is
// also the workers × tiles determinism hammer (make race-parallel runs it
// under the race detector).
func TestRouteFreeze(t *testing.T) {
	lib, proc, nl, pl := testSetup(t, 100)
	base := Config{Lib: lib, Proc: proc, SignalProb: 0.5, Samples: 61, Seed: 17, KeepTrials: true}
	print := os.Getenv("LEAKEST_FREEZE_PRINT") != ""
	for _, rt := range freezeRoutes {
		t.Run(rt.name, func(t *testing.T) {
			for _, workers := range []int{1, 3, 8} {
				cfg := base
				cfg.Workers = workers
				rt.mutate(&cfg, freezeSpec)
				got := runFrozen(t, rt, cfg, nl, pl)
				if print {
					fmt.Printf("%s %s\n", rt.name, got)
				}
				if got != rt.want && !print {
					t.Fatalf("workers=%d: hash %s, frozen %s", workers, got, rt.want)
				}
			}
		})
	}
}

func runFrozen(t *testing.T, rt freezeRoute, cfg Config, nl *netlist.Netlist, pl *placement.Placement) string {
	t.Helper()
	if rt.denseLimit != 0 {
		old := autoDenseLimit
		autoDenseLimit = rt.denseLimit
		defer func() { autoDenseLimit = old }()
	}
	if rt.embedFault {
		fault.Arm(fault.SiteFFTSetup, fault.Action{Kind: fault.Error})
		defer fault.Reset()
	}
	res, err := Run(cfg, nl, pl)
	if err != nil {
		t.Fatal(err)
	}
	return hashResult(res)
}

// hashResult is an FNV-64a hash over the bit patterns of every per-trial
// total and every Result and TailStats field.
func hashResult(r Result) string {
	h := fnv.New64a()
	var b [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	s := func(v string) { u(uint64(len(v))); h.Write([]byte(v)) }
	for _, v := range r.Trials {
		f(v)
	}
	f(r.Mean)
	f(r.Std)
	f(r.Q05)
	f(r.Q95)
	u(uint64(r.Samples))
	if ts := r.Tail; ts != nil {
		for _, q := range ts.Quantiles {
			f(q.P)
			f(q.Value)
		}
		f(ts.Spec)
		f(ts.P)
		f(ts.SE)
		s(ts.Source)
		f(ts.MCP)
		f(ts.MCSE)
		u(uint64(ts.MCHits))
		u(uint64(ts.ISTrials))
		f(ts.Shift)
		u(uint64(ts.ISHits))
		f(ts.ESS)
		f(ts.HitESS)
		f(ts.ESSRatio)
		s(strconv.FormatBool(ts.Degraded))
		s(ts.DegradedReason)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
