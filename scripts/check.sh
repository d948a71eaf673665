#!/usr/bin/env bash
# check.sh — the repository's full verification gate:
#   1. go build ./...
#   2. go vet ./... and gofmt -l (vet's copylocks check is what rejects a
#      lock copied by value: lockapi.Cell embeds a noCopy marker; every
#      tracked Go file outside testdata/ must be gofmt-clean; the analyzer
#      testdata corpora are exempt)
#   3. clof-lint ./...          (static lock-discipline suite: atomic
#      access, memory-order policy, spin hygiene and validate-before-escape
#      for optimistic reads; a waiver that suppresses no finding fails it
#      too; a JSON report is written for the CI artifact)
#   4. make doccheck            (godoc discipline: package comments +
#      doc comments on exported declarations; scripts/doccheck.sh)
#   5. go test ./...            (tier-1, includes the model-checker suites)
#   6. go test -race            on every package except mcheck
#      (mcheck is excluded from the race pass: its replay engine is
#      single-goroutine, so -race only multiplies its minutes-long
#      exhaustive searches without checking anything new)
#   7. quick determinism gate   (every experiment of clof-figures -list at
#      reduced scale, -exp all -quick, run at -j 1 and at -j 4; every CSV
#      and TXT byte-compared in both directions, the two results.json
#      manifests compared with wall times and summary stripped, and the
#      two standard outputs compared without their "wrote" lines — the
#      figures must not depend on the worker-pool width; the -j 4 run is
#      make figures-quick, into figures-out/quick/ for the CI artifact)
#   8. all figures              (every full-scale figure, clof-figures -exp
#      all, about 2.5 minutes on a 2-CPU host, byte-compared against every
#      committed top-level figures-out/*.csv and *.txt, the chaos sweep's
#      chaos.csv included; a change that moves any row fails until the
#      artifacts are regenerated with make figures; clof-figures itself
#      exits nonzero when any point deadlocked or broke mutual exclusion)
#   9. bench module             (cd bench && go vet ./... && go test ./...):
#      the repository benchmark is a nested module that go build ./...
#      does not reach, so a root API change that breaks bench/run.sh
#      fails here instead of in the benchmark pipeline
#  10. examples                 (go run ./examples/<name> for each of the
#      four examples; go build ./... only compiles them, so this is what
#      catches an example that fails at run time)
#  11. kv scripted benchmark    (a fresh clof-bench -workload kv sweep,
#      about 40 s on a 2-CPU host, compared point by point against the
#      committed BENCH_kv.json with the nondeterministic wall times and
#      summary stripped; a change that moves any point fails until the
#      artifact is regenerated with make bench-kv)
#  12. one scripted benchmark   (the HC-best/LC-best/worst selection that
#      examples/hierdiscovery prints must equal clof-bench's for the same
#      Armv8 4-level grid: both run the one sweep, figures.Scripted)
#  13. clof-obs -events        (the per-operation event stream of a short
#      CLoF run, twice, byte-compared, then once under hbo)
#  14. benchmark rungs          (every Benchmark* in the module once,
#      -benchtime 1x: go test ./... runs no benchmark, so a rung that
#      panics or fails its own check fails here instead; then every
#      top-level benchmark go test -list reports must have a row in the
#      committed BENCH_rungs.txt, the one benchmark record make bench
#      writes, so the record cannot silently drop a rung)
#
# The root go.mod stays at `go 1.22`. bench/go.mod declares go 1.22, and
# bench/run.sh builds with GOTOOLCHAIN=local and a read-only module graph,
# so raising the root directive makes every bench build fail with "go:
# updates to go.mod needed" (step 9 catches that). Code that needs a
# newer language version carries its own constraint instead:
# internal/coro (the coroutine core memsim and mcheck share) is
# `//go:build go1.23` for iter.Pull, so the tree needs a go1.23+ toolchain.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== gofmt"
# The analyzer testdata corpora are excluded: they are fixtures, not code
# under maintenance.
unformatted=$(gofmt -l $(git ls-files '*.go' | grep -v /testdata/))
if [ -n "$unformatted" ]; then
  echo "not gofmt-clean:"
  echo "$unformatted"
  exit 1
fi

echo "== clof-lint ./..."
go run ./cmd/clof-lint ./...

echo "== clof-lint -json report (CI artifact)"
# The machine-readable report is regenerated even on a clean run (it is
# "[]" then); CI uploads figures-out/lint-report.json alongside the figure
# artifacts. Findings already failed the gate above, so -json here is
# informational and must not trip set -e on a racing edit.
mkdir -p figures-out
go run ./cmd/clof-lint -json ./... > figures-out/lint-report.json || true

echo "== doccheck"
make doccheck

echo "== go test ./..."
go test ./...

echo "== go test -race (all packages except mcheck)"
# Derived, not hand-listed, so new packages are raced by default. mcheck is
# excluded: its replay engine is single-goroutine, so -race finds nothing
# there and multiplies its exhaustive-search runtime. internal/figures takes
# about 13 minutes under -race on a 2-CPU host (764 s measured in this step;
# TestBigMachineQuick alone took 8.8 and 9.5 minutes in two runs of
# go test -race -run TestBigMachineQuick ./internal/figures), past go test's
# 10-minute default.
go test -race -timeout 30m $(go list ./... | grep -v '/internal/mcheck$')

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== quick determinism gate (every experiment, -j 1 vs -j 4)"
# Every grid point derives its seed from its key, never from dispatch order,
# so the reduced-scale run of every experiment must be byte-identical at any
# worker-pool width. Both directions: neither run may emit a file the other
# lacks. The manifests must agree on every point once the wall times, and
# the summary built from them, are stripped. Standard output must agree
# once the "wrote PATH" lines are dropped: it carries what writes no file
# (hier's detected hierarchies, fig9's selections). figures-out/quick/ is
# emptied first so a file left by an older run cannot pass for an emitted
# one.
go run ./cmd/clof-figures -exp all -quick -j 1 -q -out "$tmp/quick-j1" > "$tmp/quick-j1.out"
rm -rf figures-out/quick
make -s figures-quick > "$tmp/quick-j4.out"
cmp <(grep -v '^wrote ' "$tmp/quick-j1.out") <(grep -v '^wrote ' "$tmp/quick-j4.out")
for f in "$tmp"/quick-j1/*.csv "$tmp"/quick-j1/*.txt; do
  cmp "$f" "figures-out/quick/$(basename "$f")"
done
for f in figures-out/quick/*.csv figures-out/quick/*.txt; do
  cmp "$f" "$tmp/quick-j1/$(basename "$f")"
done
strip='del(.summary) | .results |= map(del(.wall_ms))'
cmp <(jq -S "$strip" "$tmp/quick-j1/results.json") <(jq -S "$strip" figures-out/quick/results.json)
echo "quick determinism gate: every experiment byte-identical across -j levels"

echo "== all figures (byte-compared against figures-out/)"
# Both directions: every generated figure must be committed, and every
# committed figure regenerated.
go run ./cmd/clof-figures -exp all -q -out "$tmp/all"
for f in "$tmp"/all/*.csv "$tmp"/all/*.txt; do
  cmp "$f" "figures-out/$(basename "$f")"
done
for f in figures-out/*.csv figures-out/*.txt; do
  cmp "$f" "$tmp/all/$(basename "$f")"
done
echo "all figures: byte-identical to figures-out/"

echo "== bench module (vet + tests)"
(cd bench && go vet ./... && go test ./...)

echo "== examples"
for ex in kvstore quickstart hierdiscovery customlock; do
  echo "-- examples/$ex"
  go run "./examples/$ex" > /dev/null
done

echo "== kv scripted benchmark (compared against BENCH_kv.json)"
# Wall times and the summary built from them are host provenance; every
# other field of every point must match the committed artifact (the same
# strip as step 7's manifests).
go run ./cmd/clof-bench -workload kv -out "$tmp/kv.json" > /dev/null
cmp <(jq -S "$strip" "$tmp/kv.json") <(jq -S "$strip" BENCH_kv.json)
echo "kv scripted benchmark: every point matches BENCH_kv.json"

echo "== one scripted benchmark (hierdiscovery vs clof-bench)"
selection='/^ *(HC-best|LC-best|worst):/ { print $1, $2 }'
bench_sel=$(go run ./cmd/clof-bench -platform armv8 -levels 4 -threads 1,8,32,127 | awk "$selection")
example_sel=$(go run ./examples/hierdiscovery | awk "$selection")
echo "$bench_sel"
if [ "$(echo "$bench_sel" | wc -l)" -ne 3 ] || [ "$bench_sel" != "$example_sel" ]; then
  echo "hierdiscovery selects:"
  echo "$example_sel"
  exit 1
fi
echo "one scripted benchmark: hierdiscovery selects what clof-bench selects"

echo "== clof-obs -events (determinism)"
events=(-events -platform armv8 -lock clof:tkt-clh-tkt-tkt -threads 3 -horizon 6000)
go run ./cmd/clof-obs "${events[@]}" > "$tmp/events-a.txt"
go run ./cmd/clof-obs "${events[@]}" > "$tmp/events-b.txt"
cmp "$tmp/events-a.txt" "$tmp/events-b.txt"
grep -q 'ns cpu' "$tmp/events-a.txt"
go run ./cmd/clof-obs -events -platform armv8 -lock hbo -threads 3 -horizon 6000 > /dev/null
echo "clof-obs -events: byte-identical across reruns"

echo "== benchmark rungs (every benchmark once, each recorded in BENCH_rungs.txt)"
go test -run '^$' -bench . -benchtime 1x ./...
# Package-qualified top-level names on both sides: go test -list prints a
# package's benchmark names before its "ok" line; a BENCH_rungs.txt row
# follows its "pkg:" header and carries /sub-benchmark and -GOMAXPROCS
# suffixes, which Go benchmark function names cannot contain.
go test -list '^Benchmark' ./... |
  awk '/^Benchmark/ { names[n++] = $1 } /^ok / { for (i = 0; i < n; i++) print $2 "." names[i]; n = 0 }' |
  sort -u > "$tmp/rungs-listed.txt"
awk '/^pkg: / { pkg = $2 } /^Benchmark/ { name = $1; sub(/[\/-].*/, "", name); print pkg "." name }' BENCH_rungs.txt |
  sort -u > "$tmp/rungs-recorded.txt"
missing=$(comm -23 "$tmp/rungs-listed.txt" "$tmp/rungs-recorded.txt")
if [ -n "$missing" ]; then
  echo "benchmarks missing from BENCH_rungs.txt (regenerate it with make bench):"
  echo "$missing"
  exit 1
fi
echo "benchmark rungs: all $(wc -l < "$tmp/rungs-listed.txt") top-level benchmarks recorded in BENCH_rungs.txt"

echo "check: OK"
