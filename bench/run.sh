#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given flags.
# Every Go cache, temporary file and build output stays in the checkout's
# .bench_build directory; the first run compiles the toolchain's standard
# library there and takes a few minutes longer.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
go -C "$root/bench" build -o "$build/bench" .
exec "$build/bench" -root "$root" "$@"
