#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with the
# given arguments, e.g.
#
#   bash benchmark/run.sh --workload hit-heavy --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# temporary files stay under .bench_build/ in the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd benchmark && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
