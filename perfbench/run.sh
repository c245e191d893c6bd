#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload fleet|jobs|churn --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The binary, the Go build cache and any
# other toolchain state go under $CARGO_TARGET_DIR (default .bench_build),
# so nothing is written outside the checkout. Build output goes to
# standard error; the result is the last line of standard output.
set -euo pipefail

cd "$(dirname "$0")/.."
root="$PWD"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/home"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly CGO_ENABLED=0

go -C perfbench build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
