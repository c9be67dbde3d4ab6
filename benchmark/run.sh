#!/bin/sh
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments. The Go build cache, temporary
# files and the databases the benchmark builds all stay inside the checkout.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOTELEMETRY=off
(cd "$root/benchmark" && go build -o "$build/ptldb-benchmark" .)
exec "$build/ptldb-benchmark" -tmp "$build/tmp" "$@"
