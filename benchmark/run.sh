#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and replaces this
# shell with it, so the measuring process is the only process left.
# Everything the build writes — the binary, Go's build cache, its temp
# files — lands in .bench_build/ at the checkout root.
#
#   bash benchmark/run.sh --workload tail_cold --seed 1 --seconds 10 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

go build -C "$here" -o "$out/benchmark" .
cd "$root"
exec "$out/benchmark" "$@"
