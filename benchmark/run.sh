#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Every build artifact (Go build cache, temporary files, the binary) and
# every file a run writes stays under .bench_build/ at the root; nothing
# is fetched from the network.
#
#   bash benchmark/run.sh --workload fresh-bugs --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh --seed 1              # all workloads, one after another
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOFLAGS=
export GOWORK=off
export GOPROXY=off
export GOTOOLCHAIN=local

(cd "$root/benchmark" && go build -o "$out/bin/fpgadbg-bench" .)
cd "$root"
exec "$out/bin/fpgadbg-bench" "$@"
