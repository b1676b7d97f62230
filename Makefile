GO ?= go

.PHONY: build test check vet race race-parallel fuzz bench conformance server-smoke tracecheck examples

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# check is the CI gate: static analysis plus the full suite under the race
# detector (the fault-injection registry and shared-library caches are
# concurrency-sensitive).
check: vet race

# conformance is the statistical verification gate: `leakest verify` runs
# the whole conformance registry — every estimator fixture, the goldens,
# the tail, qmc and tiled stages — at full depth plus the mutation
# self-check, at two worker counts. The two JSON reports must be identical
# apart from their "workers" line; the workers-4 report is the artifact CI
# uploads. The package's own tests run under the race detector in `check`.
conformance:
	$(GO) run ./cmd/leakest verify -workers 1 -json CONFORMANCE_leakest_w1.json
	$(GO) run ./cmd/leakest verify -workers 4 -json CONFORMANCE_leakest.json
	sed '/"workers":/d' CONFORMANCE_leakest_w1.json > CONFORMANCE_leakest_w1.cmp
	sed '/"workers":/d' CONFORMANCE_leakest.json | cmp - CONFORMANCE_leakest_w1.cmp

# server-smoke boots leakestd on a loopback port and exercises the HTTP
# API end to end: a small estimate must answer 200 with finite moments,
# concurrent duplicates must collapse onto one library characterization
# (singleflight, read off /metrics), and SIGTERM must drain to exit 0.
server-smoke:
	./scripts/server_smoke.sh

# examples builds and runs each program under examples/ once. They have no
# tests and `go build ./...` only compiles them; every one exits non-zero on
# an estimator error, so a run that fails or panics fails the target.
examples:
	@set -e; for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d; done

# tracecheck pins the tracing layer's zero-overhead contract: with no trace,
# no registry and no logger attached, every instrumentation hook — and the
# chipmc trial loop they sit on, over every field including the
# importance-sampled tail fields — must be allocation-free, and the O(n) lag
# pass of the linear and tiled estimators must allocate no more than its
# fixed per-estimate slices (TestLagPassAllocs), nothing per column or lag.
# The AllocsPerRun tests fail on any regression, so this is the cheap CI gate
# for changes that touch the disabled telemetry path or the lag kernel.
tracecheck:
	$(GO) test ./internal/telemetry/ -run 'TestDisabledTracingAllocFree|TestSpanNoopWhenAllSinksOff'
	$(GO) test ./internal/chipmc/ -run 'TestTrialBodyAllocs'
	$(GO) test ./internal/randvar/ -run TestSobolAllocs
	$(GO) test ./internal/core/ -run TestLagPassAllocs

# A short fuzz pass over the .bench parser; CI runs the seed corpus via
# `go test`, this target digs further locally.
fuzz:
	$(GO) test -fuzz=FuzzReadBench -fuzztime=30s ./internal/netlist/

# race-parallel is a focused race-detector pass over the deterministic
# worker pool and its four call sites, including the truth pass's
# per-worker integer lag counts (TruthWorkerInvariance: bitwise equal at
# 1, 3 and 8 workers) and the shared lag kernel of the linear and tiled estimators
# (LagKernelMatchesSerialRef: within a few ulps of the serial per-lag loop,
# and linear, tiled and tile stats bitwise equal at 1, 3 and 8 workers) and
# the chipmc trial loop's workers × tiles hammer
# (RouteFreeze: every Monte-Carlo route bitwise frozen at 1, 3 and 8
# workers, tile counts 2 and 3), and one core.Model read from eight
# goroutines at once (ModelConcurrentReads). The full `race` target covers them too;
# this one is the fast CI job for parallel-path changes.
race-parallel:
	$(GO) test -race ./internal/parallel/ ./internal/core/ -run 'Parallel|Sharding|ForEach|Ticker|TruthWorkerInvariance|LagKernel|ModelConcurrent'
	$(GO) test -race ./internal/chipmc/ -run 'TestRouteFreeze'
	$(GO) test -race . -run 'TestDeterminism|TestParallel|TestWorkersField'

# bench runs every paper benchmark for at least 500 ms and leaves a
# machine-readable record in BENCH_leakest.json (name, ns/op, B/op,
# allocs/op, gate count, GOMAXPROCS, worker count) via cmd/benchjson. Set LEAKEST_WORKERS=N to run
# the single-design benchmarks at a fixed pool size (recorded in the
# report); the results are bitwise identical either way. A failed `go test`
# yields no benchmark lines, which benchjson turns back into a non-zero
# exit. The Fig6 and Table1 paper-accuracy benchmarks always run under a
# wall-time budget (≈63× and ≈173× their times in the committed
# BENCH_leakest.json, 0.48 s and 29 ms, to absorb CI-host noise) so a perf regression in the estimators they sweep fails the
# target; add more gates via BENCHJSON_FLAGS="-budget ChipMCTiled=60s"
# (see cmd/benchjson). The 500 ms is a minimum time, not an iteration
# count: a kernel's ns/op is its steady state over many calls, not one
# cold call, while a driver slower than that still runs once.
BENCHJSON_BUDGETS = -budget Fig6=30s -budget Table1=5s
BENCHJSON_FLAGS ?=
bench:
	$(GO) test -bench=. -benchtime=500ms -benchmem -run=^$$ . | $(GO) run ./cmd/benchjson -o BENCH_leakest.json $(BENCHJSON_BUDGETS) $(BENCHJSON_FLAGS)
