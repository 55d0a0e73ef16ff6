#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload scan|hot|churn --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh compare DIR_A DIR_B
#
# Run from the repository root. Every file the build and the run write
# stays under .bench_build/ (build cache, binary, scratch index files) and
# .bench_results/ (one JSON file per run), both in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
