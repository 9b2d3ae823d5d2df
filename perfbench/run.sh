#!/usr/bin/env bash
# Builds the repository benchmark from this checkout's sources and runs it.
# Run it from the repository root, e.g.
#
#   bash perfbench/run.sh --workload reproduce --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the binary and every run's scratch files stay under
# .bench_build/ in the root, and nothing is fetched: the benchmark module
# depends only on the repository module beside it.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
