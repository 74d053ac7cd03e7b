#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the checkout.
# The binary and the Go build cache live in .bench_build/ inside the
# checkout, so a run reads and writes nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/arithdb-bench" .)
cd "$root"
exec "$build/arithdb-bench" "$@"
