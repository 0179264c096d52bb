#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (Go's build cache included, so nothing is written elsewhere) and
# runs it from there with the arguments given. BENCHMARK.json names this
# script as the benchmark's command.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off
go -C "$root/bench" build -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
