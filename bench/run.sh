#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments, for example:
#
#   bash bench/run.sh --workload browse --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, the binary and every
# file a run writes stay under .bench_build in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"

# The go command keeps its caches and settings under HOME; point it into
# the build directory and keep it offline.
HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off \
	go build -o "$out/tioga-bench.$$" ./bench
mv -f "$out/tioga-bench.$$" "$out/tioga-bench"
exec "$out/tioga-bench" "$@"
