#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload fig8-sweep --seed 0 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write (Go
# build cache, binary, temp state, reports, traces, profiles) stays under
# .bench_build/perfbench in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	PPROF_TMPDIR="$out/pprof" GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

go -C perfbench build -trimpath -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
