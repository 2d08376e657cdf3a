#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash hostbench/run.sh --workload serve-steady --seed 1 --seconds 30 --trace 0
#
# The build and its Go caches live under $CARGO_TARGET_DIR (default
# .bench_build) and run records and traces under .bench_out, both in the
# repository root. Nothing is fetched: the benchmark module depends only
# on the repository's own module.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$build/hostbench" .)
cd "$root"
exec "$build/hostbench" --out "$root/.bench_out" "$@"
