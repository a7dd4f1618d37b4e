#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; every
# argument is passed on. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload figures --seed 0 --seconds 30 --trace 0
#
# The build cache, the binary and everything the benchmark writes stay in
# .bench_build/ under the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench-bin" .
exec "$out/perfbench-bin" "$@"
