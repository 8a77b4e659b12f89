#!/usr/bin/env bash
# Builds the workflow benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload explore-short --seed 1 --seconds 12 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and
# scratch files stay under $CARGO_TARGET_DIR (default .bench_build), so
# the benchmark writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/perfbench"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOTELEMETRY=off GOENV=off
export PERFBENCH_OUT="$out/perfbench"

(cd "$root/perfbench" && go build -o "$out/perfbench/perfbench" .) >&2
exec "$out/perfbench/perfbench" "$@"
