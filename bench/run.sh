#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (build cache, module cache and the go command's own config and
# telemetry directory included, so nothing is written outside the
# checkout) and runs it with the arguments given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOENV=off
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
(cd "$here" && go build -o "$build/prins-bench" .)
exec "$build/prins-bench" -out "$here/out" "$@"
