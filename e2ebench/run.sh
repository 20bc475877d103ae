#!/usr/bin/env bash
# Builds wsn-serve and the benchmark's load generator from this checkout,
# then runs the benchmark with the given arguments. Run from the repository
# root:
#
#   bash e2ebench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Every build product, Go build cache entry, log, span file and result file
# goes under .bench_build/ in the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off
# With telemetry on (the default "local" mode) every go command may fork a
# detached telemetry process that outlives this script. Turn it off in the
# fresh config directory before the first go command runs.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/bin/wsn-serve" ./cmd/wsn-serve
go -C e2ebench build -o "$out/bin/e2ebench" .
exec "$out/bin/e2ebench" -server "$out/bin/wsn-serve" -out "$out" "$@"
