#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source and
# runs it from this directory, so fixtures and trace output resolve the same
# way under the driver and under `go run .`. Everything the build writes
# (binary, Go build cache) stays in .bench_build/ at the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
cd "$here"
go build -o "$build/cdlbench" .
exec "$build/cdlbench" "$@"
