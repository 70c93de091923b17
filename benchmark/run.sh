#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload slice_kernel --seed 1 --seconds 20 --trace 0
#
# It compiles the benchmark (a module of its own in this directory) and hands
# it the arguments. Everything the build and the run write stays under
# .bench_build/ in the checkout: the Go build cache, the go command's
# temporary files and its telemetry counters included.
set -euo pipefail

root="$PWD"
mkdir -p "$root/.bench_build/bin" "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
export TMPDIR="$root/.bench_build/tmp"
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTOOLCHAIN=local  # never fetch another toolchain
export GOWORK=off         # and ignore a workspace file above the checkout

go -C "$root/benchmark" build -o "$root/.bench_build/bin/benchmark" .
exec "$root/.bench_build/bin/benchmark" "$@"
