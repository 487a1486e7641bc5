#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source
# and runs it, from the root of a checkout. Everything the build and the
# run write stays inside the checkout: the Go build cache, the
# toolchain's temporary and per-user files and the binary under
# .bench_build/, results, traces and scratch stores under bench/out/
# (both ignored by git).
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
