#!/usr/bin/env bash
# Builds the fleet benchmark from the checkout's sources and runs it:
#
#   bash fleetbench/run.sh --workload hit-read --seed 1 --seconds 35 --trace 0
#
# Run from the repository root. Every build artifact (binary, Go build cache)
# lands in .bench_build/ under the working directory, so nothing is written
# outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOWORK=off

go -C "$root/fleetbench" build -o "$out/fleetbench" .
exec "$out/fleetbench" -state "$out/state" "$@"
