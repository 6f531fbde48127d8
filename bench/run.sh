#!/usr/bin/env bash
# Builds the benchmark from source and runs it, touching nothing outside the
# checkout: the binary and the Go build cache live in .bench_build/ at the
# checkout's root, trace files and temporary stores in bench/out/.
#
#   bash bench/run.sh --workload udp-load --seed 1 --seconds 10 --trace 0
#
# The build needs the whole repository (this directory is a nested module
# that replaces `vitis` with its parent); on its own it fails and the script
# exits non-zero without a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
