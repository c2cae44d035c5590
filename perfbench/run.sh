#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the root of the repository:
#
#   bash perfbench/run.sh --workload invoke --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build: the Go
# build cache, the Go configuration directory (telemetry counters) and the
# benchmark's scratch files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" -work "$out/work" "$@"
