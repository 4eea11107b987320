#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash e2ebench/run.sh --workload sim-contended --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# toolchain's home directory all live under $CARGO_TARGET_DIR (default
# .bench_build), so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/home"

export HOME=$out/home XDG_CONFIG_HOME=$out/home XDG_CACHE_HOME=$out/home
export GOCACHE=$out/go-cache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export GOFLAGS= GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOTELEMETRY=off

go -C e2ebench build -o "$out/e2ebench" .
exec "$out/e2ebench" "$@"
