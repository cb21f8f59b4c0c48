#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the root of a checkout:
#   bash bench/e2e/run.sh --workload batch_build --seed 1 --seconds 10 --trace 0
# The Go build cache, temporary files and the binary all stay inside the
# checkout, under .bench_build/; generated inputs and traces go to
# bench/e2e/out/.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/go-cache GOTMPDIR=$build/tmp GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C "$root/bench/e2e" build -o "$build/e2e" .
exec "$build/e2e" "$@"
