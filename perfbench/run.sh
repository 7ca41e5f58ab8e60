#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and executes it with
# the given arguments. Run from the repository root:
#   bash perfbench/run.sh --workload omp-d3-dense --seed 1 --seconds 30 --trace 0
# The binary, the Go build cache and all run scratch live under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
(
	cd "$root/perfbench"
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
		GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTELEMETRY=off \
		GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
		go build -o "$out/perfbench" .
) >&2
exec "$out/perfbench" "$@"
