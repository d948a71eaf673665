#!/usr/bin/env bash
# Builds clof-benchmark from source and runs it with the given arguments,
# from the repository root. Every build output (binary, Go build cache,
# compiler temporaries) and every span file stays under .bench_build/ at
# the root, so a run reads and writes only inside the checkout.
#
#   bash bench/run.sh --workload ycsb-b.sim-lc --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -o "$out/clof-benchmark" ./cmd/clof-benchmark)
cd "$root"
exec "$out/clof-benchmark" "$@"
