#!/usr/bin/env bash
# Builds the harness from source inside the checkout and runs it with the
# given flags. Build cache and binary stay under .bench_build, so a run
# writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -C bench -o "$build/selfstab-bench" .
exec "$build/selfstab-bench" "$@"
