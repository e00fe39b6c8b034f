#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#   bash perfbench/run.sh --workload read-mix --seed 1 --seconds 20 --trace 0
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
# The go command's cache, module path, temp files and per-user files
# (telemetry counters live under the user config dir) all go here.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off
export GOMAXPROCS="${GOMAXPROCS:-$(nproc)}"

go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" --data-root "$build/perfbench-data" "$@"
