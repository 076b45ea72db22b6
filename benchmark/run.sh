#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds relbench from source into
# .bench_build/ at the root of the checkout and runs it with the driver's
# arguments. Everything the build and the run write stays inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOENV=off
(cd "$root/benchmark" && go build -o "$build/relbench" .)
cd "$root"
exec "$build/relbench" -outdir benchmark/out "$@"
