#!/usr/bin/env bash
# Builds the evolvevm benchmark from the checkout's sources and runs it.
# Run from the root of a checkout, e.g.
#
#   bash evbench/run.sh --workload serve-steady --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temp files, the binary)
# stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOTOOLCHAIN=local
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
(cd "$root/evbench" && go build -o "$build/evbench" .)
exec "$build/evbench" "$@"
