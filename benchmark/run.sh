#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# caller's arguments. Everything the build and the run leave behind goes
# under .bench_build/ at the checkout root (Go's build cache and its work
# directory included), so the benchmark reads and writes nothing outside its
# checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/spbcperf" .)
cd "$root"
exec "$build/spbcperf" "$@"
