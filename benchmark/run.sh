#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the
# checkout this is run from) and executes it with the given arguments.
# HOME is redirected so the Go build cache and telemetry files also stay
# inside the checkout; GOTOOLCHAIN=local forbids toolchain downloads.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home" GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -C "$here" -o "$build/komp-benchmark" . >&2
exec "$build/komp-benchmark" "$@"
