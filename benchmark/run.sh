#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it, passing
# every argument through. All build state (Go's build cache, temporary files,
# the binary) and all run state (snapshots, N-Triples files) stay under
# .bench_build/ in the working directory, which must be the repository root.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local
go build -o "$build/mpc-benchmark" ./benchmark
exec "$build/mpc-benchmark" "$@"
