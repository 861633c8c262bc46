#!/usr/bin/env bash
# Builds the benchmark binary from source into .bench_build/ under the
# checkout root, then replaces this shell with it: one foreground
# process, no child left behind. Every file the Go toolchain writes
# (build cache, temporaries) is kept under .bench_build/ too.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$out/coolbenchmark" .
cd "$root"
exec "$out/coolbenchmark" "$@"
