#!/usr/bin/env bash
# Builds the benchmark and the streamkmd daemon from this checkout's
# sources, then runs one workload. Run it from the checkout root:
#
#   bash perfbench/run.sh --workload batch-cells --seed 1 --seconds 20 --trace 0
#
# Everything it writes (Go caches, binaries, the workload's files and
# the traced run's spans) stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off GOSUMDB=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
go build -buildvcs=false -o "$out/streamkmd" ./cmd/streamkmd >&2

exec "$out/perfbench" -daemon "$out/streamkmd" "$@"
