#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash simbench/run.sh --workload quick-sweep --seed 42 --seconds 40 --trace 0
#
# Every build artifact (Go build cache, temporary files, binary) stays
# under .bench_build/ in the current directory, so nothing outside the
# checkout is written.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export CGO_ENABLED=0

go -C simbench build -o "$build/simbench" .
exec "$build/simbench" "$@"
