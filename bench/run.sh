#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through:
#
#   bash bench/run.sh --workload exec-base --seed 1 --seconds 12 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary files, the
# binary) stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOFLAGS="" GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
