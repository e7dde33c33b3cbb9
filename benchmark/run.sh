#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root. Everything it writes stays under
# .bench_build there: the Go build cache, module cache and telemetry
# files, the binary, and the WAL directories of the runs (TMPDIR).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
(
	cd "$root/benchmark"
	GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
		GOTOOLCHAIN=local GOFLAGS=-mod=readonly \
		go build -o "$build/replbenchmark" .
)
exec "$build/replbenchmark" "$@"
