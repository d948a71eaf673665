GO ?= go

.PHONY: build test lint doccheck check figures figures-quick bench bench-check bench-kv

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Static lock-discipline suite (atomic access, memory-order policy).
# Exits nonzero on findings, including a //lint: waiver that suppresses
# nothing.
lint:
	$(GO) run ./cmd/clof-lint ./...

# Godoc discipline: package comments everywhere, doc comments on every
# exported top-level declaration (sh+awk only; see scripts/doccheck.sh).
doccheck:
	sh scripts/doccheck.sh

# Full verification gate: build + vet + lint + doccheck + tests + race pass
# + every experiment byte-compared across -j levels and against the
# committed figures-out/ (see scripts/check.sh).
check:
	scripts/check.sh

# Every experiment at full scale (chaos.csv, the fault-injection sweep,
# included) into the checked-in figures-out/.
figures:
	$(GO) run ./cmd/clof-figures -exp all -out figures-out

# Reduced-scale run of every experiment (-exp all -quick), CSVs + results.json
# into figures-out/quick/ (kept apart from the checked-in full-scale CSVs).
# scripts/check.sh step 7 runs it and byte-compares it against a -j 1 rerun;
# CI uploads the directory with the rest of figures-out/.
figures-quick:
	$(GO) run ./cmd/clof-figures -exp all -quick -j 4 -q -out figures-out/quick

# Every benchmark rung in the module, in Go's standard benchmark format (one
# row per rung; benchstat reads it), recorded into the committed
# BENCH_rungs.txt. The memsim rungs report simops/s (host throughput),
# simops/op (simulated operations per run), switches/op (coroutine
# switches per run) and, on the lock rungs, vns/op (virtual ns per
# acquire-release pair), the last three deterministic. Regenerate and
# commit after a change that moves a rung; see EXPERIMENTS.md "Profiling the
# simulator". scripts/check.sh step 14 runs every rung once and fails when
# one is missing from BENCH_rungs.txt.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 300ms ./... > BENCH_rungs.txt

# The deterministic columns of the benchmark record: reruns the memsim
# BenchmarkMachine* rungs (simops/op, switches/op, vns/op) and the checker's
# BenchmarkCheck (states/op, execs/op) once each and compares them exactly
# against the committed BENCH_rungs.txt; no host-time column is compared
# (see scripts/bench-check.sh). scripts/check.sh step 15 runs it.
bench-check:
	bash scripts/bench-check.sh

# Scripted-benchmark artifact for the sharded serving workload: every CLoF
# composition as the per-shard lock, read-mostly mix, recorded point by
# point into BENCH_kv.json (about 40 s on a 2-CPU host). scripts/check.sh
# step 11 reruns the sweep and compares every point except wall times, so
# regenerate and commit after lock-algorithm or serving-engine changes.
bench-kv:
	$(GO) run ./cmd/clof-bench -workload kv -out $(CURDIR)/BENCH_kv.json
