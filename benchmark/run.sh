#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from the
# checkout's root. BENCHMARK.json names this script as the command; every
# argument is passed through (see main.go).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
# The build cache stays inside the checkout, like every other file this writes.
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOWORK=off
(cd "$here" && go build -o "$build/iochar-benchmark" .)
cd "$root"
exec "$build/iochar-benchmark" "$@"
