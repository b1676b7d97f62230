#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources into .bench_build
# (Go build cache included, so nothing is written outside the checkout) and
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload estimate --seed 1 --seconds 15 --trace 0
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
