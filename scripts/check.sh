#!/usr/bin/env bash
# check.sh — the repository's full verification gate:
#   1. go build ./...
#   2. go vet ./... and gofmt -l (every tracked Go file outside testdata/
#      must be gofmt-clean; the analyzer testdata corpora are exempt)
#   3. clof-lint ./...          (static lock-discipline suite: atomic
#      access, memory-order policy, copylocks, spin hygiene, plus the
#      whole-program lock-graph analyzers — lockorder's cross-package
#      deadlock/level-inversion detection and heldescape's
#      guarded-write/bare-read escapes; a JSON report is written for
#      the CI artifact)
#   4. make doccheck            (godoc discipline: package comments +
#      doc comments on exported declarations; scripts/doccheck.sh)
#   5. go test ./...            (tier-1, includes the model-checker suites)
#   6. go test -race            on every package except mcheck
#      (mcheck is excluded from the race pass: its replay engine is
#      single-goroutine, so -race only multiplies its minutes-long
#      exhaustive searches without checking anything new)
#   7. clof-chaos smoke run, twice, byte-compared — the determinism
#      guarantee the robustness report rests on — then the full default
#      sweep, byte-compared against the committed figures-out/chaos.csv
#      (a lock or catalog change that moves any row fails until the CSV is
#      regenerated with make chaos)
#   8. make figures-quick       (experiment engine smoke: a small figure
#      set on the parallel runner, CSVs + results.json into figures-out/)
#   9. collapse smoke           (concurrency-restriction experiment at
#      reduced scale, byte-compared across -j levels, then regenerated
#      into figures-out/collapse-quick/ for the CI artifact)
#  10. kv smoke                 (sharded-serving sweep at reduced scale,
#      byte-compared across -j levels, then regenerated into
#      figures-out/kv-quick/ for the CI artifact), then every full-scale
#      figure (clof-figures -exp all, about 2.5 minutes on a 2-CPU host),
#      byte-compared against every committed top-level figures-out/*.csv
#      and *.txt except chaos.csv, which step 7 covers (a change that moves
#      any row fails until the artifacts are regenerated with make figures)
#  11. occ smoke                (optimistic-read panels — the two
#      read-mostly sweeps the seq: acceptance criterion quantifies over —
#      byte-compared across -j levels, then regenerated into
#      figures-out/occ-quick/ for the CI artifact)
#  12. scale smoke              (deep-topology bigmachine sweep — the
#      256/512/1024-vCPU catalog panels — byte-compared across -j levels,
#      then regenerated into figures-out/scale-quick/ for the CI artifact)
#  13. bench module             (cd bench && go vet ./... && go test ./...):
#      the repository benchmark is a nested module that go build ./...
#      does not reach, so a root API change that breaks bench/run.sh
#      fails here instead of in the benchmark pipeline
#  14. examples                 (go run ./examples/<name> for each of the
#      four examples; go build ./... only compiles them, so this is what
#      catches an example that fails at run time)
#  15. kv scripted benchmark    (a fresh clof-bench -workload kv sweep,
#      about 40 s on a 2-CPU host, compared point by point against the
#      committed BENCH_kv.json with the nondeterministic wall times and
#      summary stripped; a change that moves any point fails until the
#      artifact is regenerated with make bench-kv)
#  16. one scripted benchmark   (the HC-best/LC-best/worst selection that
#      examples/hierdiscovery prints must equal clof-bench's for the same
#      Armv8 4-level grid: both run the one sweep, figures.Scripted)
#
# The root go.mod stays at `go 1.22`. bench/go.mod declares go 1.22, and
# bench/run.sh builds with GOTOOLCHAIN=local and a read-only module graph,
# so raising the root directive makes every bench build fail with "go:
# updates to go.mod needed" (step 13 catches that). Code that needs a
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
# about 14 minutes under -race on a 2-CPU host (TestBigMachineQuick's
# 1024-vCPU panels alone about 11.5), past go test's 10-minute default.
go test -race -timeout 30m $(go list ./... | grep -v '/internal/mcheck$')

echo "== clof-chaos smoke (determinism)"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
smoke=(-locks "mcs,hbo,clof:tkt-tkt-tkt-tkt" -plans "none,holder-preempt,abandon" -threads 8)
go run ./cmd/clof-chaos "${smoke[@]}" -out "$tmp/a.csv"
go run ./cmd/clof-chaos "${smoke[@]}" -out "$tmp/b.csv"
cmp "$tmp/a.csv" "$tmp/b.csv"
echo "chaos smoke: byte-identical across reruns"
go run ./cmd/clof-chaos -out "$tmp/chaos.csv"
cmp "$tmp/chaos.csv" figures-out/chaos.csv
echo "chaos sweep: byte-identical to figures-out/chaos.csv"

echo "== figures-quick (experiment engine smoke)"
make figures-quick

echo "== collapse-quick (concurrency-restriction smoke + determinism)"
# The collapse curves must be byte-identical at any worker-pool width —
# same guarantee as the chaos CSV, checked the same way.
go run ./cmd/clof-figures -exp collapse -quick -j 1 -q -out "$tmp/collapse-j1"
go run ./cmd/clof-figures -exp collapse -quick -j 4 -q -out "$tmp/collapse-j4"
cmp "$tmp/collapse-j1/collapse-none.csv" "$tmp/collapse-j4/collapse-none.csv"
cmp "$tmp/collapse-j1/collapse-oversubscribed.csv" "$tmp/collapse-j4/collapse-oversubscribed.csv"
echo "collapse smoke: byte-identical across -j levels"
make collapse-quick

echo "== kv-quick (sharded-serving smoke + determinism)"
# The serving curves carry per-shard obs blocks in their manifest; the CSVs
# must still be byte-identical at any worker-pool width.
go run ./cmd/clof-figures -exp kv -quick -j 1 -q -out "$tmp/kv-j1"
go run ./cmd/clof-figures -exp kv -quick -j 4 -q -out "$tmp/kv-j4"
for mix in read-mostly write-heavy rmw scan read-mostly-armv8; do
  cmp "$tmp/kv-j1/kv-$mix.csv" "$tmp/kv-j4/kv-$mix.csv"
done
echo "kv smoke: byte-identical across -j levels"
make kv-quick

echo "== all figures (byte-compared against figures-out/)"
# Both directions: every generated figure must be committed, and every
# committed figure (chaos.csv aside, which clof-chaos writes) regenerated.
go run ./cmd/clof-figures -exp all -q -out "$tmp/all"
for f in "$tmp"/all/*.csv "$tmp"/all/*.txt; do
  cmp "$f" "figures-out/$(basename "$f")"
done
for f in figures-out/*.csv figures-out/*.txt; do
  [ "$(basename "$f")" = chaos.csv ] && continue
  cmp "$f" "$tmp/all/$(basename "$f")"
done
echo "all figures: byte-identical to figures-out/"

echo "== occ-quick (optimistic-read smoke + determinism)"
# The seq: rows ride the kv sweep above; the focused occ alias must produce
# the same read-mostly curves byte-for-byte at any worker-pool width.
go run ./cmd/clof-figures -exp occ -quick -j 1 -q -out "$tmp/occ-j1"
go run ./cmd/clof-figures -exp occ -quick -j 4 -q -out "$tmp/occ-j4"
for f in kv-read-mostly kv-read-mostly-armv8; do
  cmp "$tmp/occ-j1/$f.csv" "$tmp/occ-j4/$f.csv"
done
echo "occ smoke: byte-identical across -j levels"
make occ-quick

echo "== scale-quick (deep-topology smoke + determinism)"
# The 256/512/1024-vCPU bigmachine panels must be byte-identical at any
# worker-pool width — the golden-determinism guarantee extends to the deep
# topologies.
go run ./cmd/clof-figures -exp bigmachine -quick -j 1 -q -out "$tmp/scale-j1"
go run ./cmd/clof-figures -exp bigmachine -quick -j 4 -q -out "$tmp/scale-j4"
for n in 256 512 1024; do
  cmp "$tmp/scale-j1/bigmachine-$n.csv" "$tmp/scale-j4/bigmachine-$n.csv"
done
echo "scale smoke: byte-identical across -j levels"
make scale-quick

echo "== bench module (vet + tests)"
(cd bench && go vet ./... && go test ./...)

echo "== examples"
for ex in kvstore quickstart hierdiscovery customlock; do
  echo "-- examples/$ex"
  go run "./examples/$ex" > /dev/null
done

echo "== kv scripted benchmark (compared against BENCH_kv.json)"
# Wall times and the summary built from them are host provenance; every
# other field of every point must match the committed artifact.
strip='del(.summary) | .results |= map(del(.wall_ms))'
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

echo "check: OK"
