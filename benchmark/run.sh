#!/usr/bin/env bash
# Builds psbench from source and runs it with the given arguments, from the
# root of the checkout. Everything the build writes — the binary and Go's
# build cache — stays under .bench_build/ in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"

mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off
# The build's own output goes to stderr: the last line of stdout is the result.
go build -C "$here" -o "$build/psbench" . >&2

cd "$root"
exec "$build/psbench" -out "$here/out" "$@"
