#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; every
# argument passes through (see README.md). Run from the repository root:
#
#   bash perfbench/run.sh --workload point --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and each run's scratch files live under
# .bench_build in the current directory, so a run touches nothing outside
# the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOENV=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
