#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Called from the root of a
# checkout, as BENCHMARK.json's command:
#
#   bash bench/run.sh --workload store-cliff --seed 1 --seconds 12 --trace 0
#
# Everything the build writes stays inside the checkout, under
# .bench_build/ (the Go build cache too), so the first run compiles the
# standard library and later runs only relink when a source file changed.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/talus-bench" .)
exec "$build/talus-bench" "$@"
