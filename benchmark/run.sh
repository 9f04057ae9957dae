#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# flags. Everything the Go tools leave behind (build cache, module cache,
# configuration and telemetry) goes to .bench_build at the root of the
# checkout, so a run reads and writes only inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go -C "$here" build -o "$build/cable-benchmark" .
exec "$build/cable-benchmark" "$@"
