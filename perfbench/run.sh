#!/usr/bin/env bash
# Builds the fleet-engine benchmark from the checkout's source and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload pure-1k --seed 42 --seconds 6 --trace 0
#
# Every build artifact (the Go build cache and temporary files included)
# stays under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
