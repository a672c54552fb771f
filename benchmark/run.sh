#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the checkout,
# Go build cache included) and runs it with the given arguments. Run it from
# the repository root:
#   bash benchmark/run.sh --workload stress_xg --seed 1 --seconds 20 --trace 0
set -euo pipefail
root=$PWD
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
# The VCS stamp gives the report its git revision; where git cannot answer
# (a checkout nested in someone else's repository) build without it.
go build -C "$root/benchmark" -o "$build/benchmark.bin" . ||
	go build -C "$root/benchmark" -buildvcs=false -o "$build/benchmark.bin" .
exec "$build/benchmark.bin" "$@"
