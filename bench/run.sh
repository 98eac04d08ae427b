#!/bin/sh
# Entry point named by BENCHMARK.json. Builds and runs the benchmark from
# source inside the checkout: the Go build cache lives in .bench_build, so a
# run reads and writes nothing outside the checkout.
set -e
cd "$(dirname "$0")"
root=$(cd .. && pwd)
mkdir -p "$root/.bench_build"
GOCACHE="$root/.bench_build/gocache" exec go run . "$@"
