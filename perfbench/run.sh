#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload serve-small --seed 1 --seconds 12 --trace 0
#
# Run from the root of the checkout. Build outputs and Go caches stay under
# .bench_build/ in the checkout. Without the repository's sources next to
# perfbench/ the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOENV=off
export GOTELEMETRY=off GOPROXY=off GOSUMDB=off

go -C "$root/perfbench" build -o "$out/perfbench.bin" . >&2
exec "$out/perfbench.bin" "$@"
