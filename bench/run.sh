#!/usr/bin/env bash
# Builds hgserve and the hgload harness from the tree this script sits in,
# then runs hgload with the given arguments. This is BENCHMARK.json's command:
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build and the run write stays under bench/out.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/bench/out"
mkdir -p "$out/bin" "$out/tmp"
# Keep the Go toolchain's caches and temporary files inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/xdg" GOFLAGS=-mod=mod GOTOOLCHAIN=local
# A fresh telemetry directory makes the first go command start a detached
# sidecar that outlives it; the mode file turns that off.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
if [[ ! -f go.mod || ! -d cmd/hgserve ]]; then
  echo "bench/run.sh: no program to measure here (go.mod and cmd/hgserve are missing)" >&2
  exit 2
fi
go build -o "$out/bin/hgserve" ./cmd/hgserve
go build -o "$out/bin/hgload" ./bench
exec "$out/bin/hgload" "$@"
