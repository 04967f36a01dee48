#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload sim-exact --seed 1 --seconds 12 --trace 0
#
# Build caches, the binary and span files stay under .bench_build/.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
