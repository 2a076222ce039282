#!/usr/bin/env bash
# Builds the request-path benchmark from the source tree this script sits
# in and runs it; every argument passes through to the benchmark binary
# (see perfbench/README.md). Run from the repository root:
#
#   bash perfbench/run.sh --workload longctx-decode --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and every scratch file stay under
# .bench_build/ in the repository root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOPROXY=off
go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" --root "$root" --tmpdir "$out/tmp" "$@"
