#!/usr/bin/env bash
# Builds the cyclic-debugging benchmark from the checkout's sources and
# runs it from the checkout root. Everything the build and the runs
# write stays under .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload cyclic-1m --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare .bench_build/results/A .bench_build/results/B
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
