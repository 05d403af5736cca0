#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Call it from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload flood --seed 2019 --seconds 30 --trace 0
#
# Everything the build and the runs write (Go build cache, temporary files,
# binary, CPU profiles) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export HOME="$build/home" TMPDIR="$build/tmp" GOTMPDIR="$build/tmp" PPROF_TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
