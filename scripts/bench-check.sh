#!/usr/bin/env bash
# bench-check.sh — reruns the benchmark rungs whose columns are
# deterministic and compares those columns exactly against the committed
# BENCH_rungs.txt (make bench-check; scripts/check.sh step 15):
#
#   - internal/memsim BenchmarkMachine*: simops/op, the simulated
#     operations of one run, switches/op, the coroutine switches the
#     execution core made for them, and, on the lock rungs, vns/op, the
#     virtual ns per completed acquire–release pair;
#   - internal/mcheck BenchmarkCheck: states/op and execs/op, the states
#     and schedule prefixes of one check.
#
# Each rung runs once (-benchtime 1x): these columns do not depend on the
# iteration count. No host-time column (ns/op, simops/s, B/op, allocs/op)
# is compared. A mismatch means the rung now simulates or explores
# something else, or takes turns differently; when that is the change's
# intent, regenerate the record with make bench. The comparison runs both ways, so a rung or column that
# disappears fails as well as one that moves or is new.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go test -run '^$' -bench '^BenchmarkMachine' -benchtime 1x ./internal/memsim > "$tmp/rungs.txt"
go test -run '^$' -bench '^BenchmarkCheck$' -benchtime 1x ./internal/mcheck >> "$tmp/rungs.txt"

# columns prints "pkg rung unit value" for every deterministic column of a
# benchmark output, the rung without its -GOMAXPROCS suffix and the value
# as an exact number, so "721.0" and "721" agree.
columns() {
  awk '
    /^pkg: / { pkg = $2 }
    /^Benchmark/ && (pkg ~ /\/internal\/(memsim|mcheck)$/) {
      name = $1
      sub(/-[0-9]+$/, "", name)
      for (i = 3; i < NF; i++)
        if ($(i + 1) ~ /^(simops|switches|vns|states|execs)\/op$/)
          printf "%s %s %s %.17g\n", pkg, name, $(i + 1), $i
    }' "$1" | sort
}
columns "$tmp/rungs.txt" > "$tmp/measured.txt"
columns BENCH_rungs.txt > "$tmp/recorded.txt"

if [ ! -s "$tmp/measured.txt" ]; then
  echo "bench-check: no deterministic column measured"
  exit 1
fi
if ! diff "$tmp/recorded.txt" "$tmp/measured.txt" > "$tmp/diff.txt"; then
  echo "bench-check: deterministic columns differ from BENCH_rungs.txt (< recorded, > measured):"
  cat "$tmp/diff.txt"
  exit 1
fi
echo "bench-check: all $(wc -l < "$tmp/measured.txt") deterministic columns match BENCH_rungs.txt"
