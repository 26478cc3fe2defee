#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload ga-cruise --seed 1 --seconds 20 --trace 0
#
# The build cache, temporary files, the binary and the traced sessions'
# span files all stay under .bench_build in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" -out "$out" "$@"
