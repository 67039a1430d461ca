#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in, then runs
# it with the given arguments:
#
#   bash perfbench/run.sh --workload car --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The Go build cache, the binary and every
# file the run writes stay under .bench_build/ in that root; nothing is
# fetched (GOPROXY=off), so the build fails fast when the sources are absent.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOENV=off GOFLAGS= GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/work" "$@"
