#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#   bash perfbench/run.sh --workload cold-grid --seed 1 --seconds 25 --trace 0
# Build outputs, the Go build cache and span files go to
# $CARGO_TARGET_DIR (default .bench_build) under the current directory.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOTOOLCHAIN=local GOENV=off GOPROXY=off GOWORK=off
go build -C "$root/perfbench" -o "$out/perfbench" . >&2
exec "$out/perfbench" --spans "$out/spans" "$@"
