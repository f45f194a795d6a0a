#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve_warm --seed 1 --seconds 20 --trace 0
#
# Every build artefact (Go build cache, module cache, binary) and every
# output file stays under .bench_build/ in the checkout. Outside a full
# checkout (no ../go.mod next to perfbench/) the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOFLAGS=-mod=mod \
	GOPROXY=off GOTOOLCHAIN=local GOTMPDIR="$out" XDG_CONFIG_HOME="$out/config"
go -C perfbench build -o "$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" "$@"
