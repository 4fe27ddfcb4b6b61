#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it
# from the repository root; arguments pass through to the benchmark:
#
#   bash benchmark/run.sh --workload factoid_longtail --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh manifest > BENCHMARK.json
#   bash benchmark/run.sh compare PARENT_RESULTS CHANGE_RESULTS
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd "$root/benchmark" && go build -o "$build/kbqabench" .) >&2
exec "$build/kbqabench" "$@"
