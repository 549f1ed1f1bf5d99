#!/usr/bin/env bash
# Builds the serving benchmark from the source tree it sits in and runs it
# with the given arguments. Run it from the root of the tree:
#
#   bash perfbench/run.sh --workload hot-zipf --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and temporary files stay under
# .bench_build/ in the working directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
