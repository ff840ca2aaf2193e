#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark binary, e.g.
#
#   bash perfbench/run.sh --workload churn_n8 --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and temporary files all stay under
# .bench_build (or $CARGO_TARGET_DIR) in the working directory.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/tmp"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off GOENV=off CGO_ENABLED=0

# HOME points into the build directory too, so nothing the go command
# keeps per user (telemetry counters, for one) is written outside it.
HOME="$out/home" go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
