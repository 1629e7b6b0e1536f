#!/bin/sh
# Builds the benchmark program (a module of its own, see bench/go.mod) into
# .bench_build/ at the checkout root and runs it with the given flags:
#
#   sh bench/run.sh --workload sched --seed 1 --seconds 35 --trace 0
#
# The Go build cache and temporary files also live under .bench_build/, and
# the toolchain is pinned to the local one with the module proxy off, so the
# build never leaves the checkout.
set -eu
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
go -C bench build -o "$out/optimus-benchmark" .
exec "$out/optimus-benchmark" "$@"
