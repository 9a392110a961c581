#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything the build writes — the Go build cache, its
# temporary files and the binary — stays under .bench_build/, so a run reads
# and writes nothing outside the checkout; the first run in a fresh checkout
# therefore compiles the standard library too (about a minute), later runs
# only check that the binary is up to date.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/ledger" ./benchmark
exec "$build/ledger" "$@"
