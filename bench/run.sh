#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root, then runs it with the given flags. Everything the build and the run
# write (Go build cache, binary, CPU profiles) stays in .bench_build/.
#
#   bash bench/run.sh --workload fio-hwdp --seed 1 --seconds 15 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -o "$out/hwdp-bench" .)
exec "$out/hwdp-bench" "$@"
