#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from source
# inside the checkout (compiler cache and temporaries under .bench_build/,
# so nothing is written outside it) and runs it with the driver's flags:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# By hand, `go run ./bench ...` does the same with your own Go cache.
set -euo pipefail
root=$PWD
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOMODCACHE="$build/gomod"
mkdir -p "$GOCACHE" "$GOTMPDIR"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
