GO ?= go

.PHONY: build test lint lint-report lint-litmus doccheck check chaos figures figures-quick collapse-quick kv-quick occ-quick scale-quick bench bench-smoke bench-kv bench-scale

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Static lock-discipline suite (atomic access, memory-order policy,
# copylocks, spin hygiene) plus the whole-program lock-graph analyzers
# (lockorder: cross-package deadlock cycles and CLoF level inversions;
# heldescape: lock-protected fields read with no lock held). Exits nonzero
# on findings.
lint:
	$(GO) run ./cmd/clof-lint ./...

# Machine-readable findings report (position-sorted JSON array; "[]" when
# clean) into figures-out/ for the CI artifact. Exits nonzero on findings,
# like lint, but the report is written either way.
lint-report:
	mkdir -p figures-out
	$(GO) run ./cmd/clof-lint -json ./... > figures-out/lint-report.json

# The lint→mcheck bridge: emit one runnable mcheck litmus program per
# statically detected lock-order cycle into figures-out/litmus/ (each
# `go run`s from the repository root and exits 0 iff the model checker
# reproduces the deadlock). Waived cycles are skipped, so a clean tree
# ⇒ "no live lock-order cycles".
lint-litmus:
	$(GO) run ./cmd/clof-lint -litmus figures-out/litmus ./... || true

# Godoc discipline: package comments everywhere, doc comments on every
# exported top-level declaration (sh+awk only; see scripts/doccheck.sh).
doccheck:
	sh scripts/doccheck.sh

# Full verification gate: build + vet + lint + doccheck + tests + race pass
# + chaos determinism smoke (see scripts/check.sh).
check:
	scripts/check.sh

# Fault-injection robustness sweep: full lock catalog x all fault presets.
chaos:
	$(GO) run ./cmd/clof-chaos -out figures-out/chaos.csv

figures:
	$(GO) run ./cmd/clof-figures -exp all -out figures-out

# Reduced-scale smoke of the experiment engine: a small experiment set on
# the parallel runner, CSVs + results.json into figures-out/quick/ (kept
# apart from the checked-in full-scale CSVs). CI uploads the directory as
# a build artifact.
figures-quick:
	$(GO) run ./cmd/clof-figures -exp fig2,fig4,fairness -quick -j 0 -out figures-out/quick

# Saturation-collapse smoke: the concurrency-restriction experiment
# (internal/cr, EXPERIMENTS.md "Avoiding collapse") at reduced scale, into
# its own artifact directory so its results.json does not clobber the
# figures-quick manifest. CI uploads the CSVs + results.json; the committed
# full-scale curves are figures-out/collapse-*.csv.
collapse-quick:
	$(GO) run ./cmd/clof-figures -exp collapse -quick -j 0 -out figures-out/collapse-quick

# Sharded-serving smoke: the shards x lock family x mix sweep (internal/store,
# EXPERIMENTS.md "Sharded serving") at reduced scale, into its own artifact
# directory. CI uploads the CSVs + results.json (per-shard contention blocks
# ride each point's obs field); the committed full-scale curves are
# figures-out/kv-*.csv.
kv-quick:
	$(GO) run ./cmd/clof-figures -exp kv -quick -j 0 -out figures-out/kv-quick

# Optimistic-read smoke: just the two read-mostly panels (x86 + Armv8) the
# seq: acceptance criterion is asserted on (EXPERIMENTS.md "Optimistic
# reads"), at reduced scale, into their own artifact directory. CI uploads
# the CSVs + results.json; the committed full-scale curves are
# figures-out/kv-read-mostly*.csv.
occ-quick:
	$(GO) run ./cmd/clof-figures -exp occ -quick -j 0 -out figures-out/occ-quick

# Simulator throughput baseline: runs the canonical memsim scenarios
# (~300ms each) and records host-side simops/s into BENCH_baseline.json.
# Regenerate and commit after execution-core changes; see EXPERIMENTS.md
# "Profiling the simulator".
bench:
	CLOF_BENCH_OUT=$(CURDIR)/BENCH_baseline.json $(GO) test ./internal/memsim -run TestWriteBenchArtifact -count=1 -v
	$(GO) test ./internal/memsim ./internal/eventq -run XXX -bench 'BenchmarkMachine|BenchmarkQueue' -benchtime 200ms

# CI smoke: every benchmark executes once (so it cannot silently rot) and a
# quick BENCH_smoke.json artifact is produced for the workflow to upload.
bench-smoke:
	CLOF_BENCH_OUT=$(CURDIR)/BENCH_smoke.json CLOF_BENCH_QUICK=1 $(GO) test ./internal/memsim -run TestWriteBenchArtifact -count=1 -v
	$(GO) test ./internal/memsim ./internal/eventq -run XXX -bench 'BenchmarkMachine|BenchmarkQueue' -benchtime 1x

# Deep-topology smoke: the 256-1024-vCPU bigmachine sweep (internal/topo
# deep machines, EXPERIMENTS.md "Scaling the substrate") at reduced scale,
# into its own artifact directory. CI uploads the CSVs + results.json; the
# committed full-scale curves are figures-out/bigmachine-*.csv.
scale-quick:
	$(GO) run ./cmd/clof-figures -exp bigmachine -quick -j 0 -out figures-out/scale-quick

# Deep-topology throughput baseline: full-machine contended runs on the
# 256/512/1024-vCPU deep machines (~300ms each) into BENCH_scale.json.
# Regenerate and commit after execution-core or topology changes; see
# EXPERIMENTS.md "Scaling the substrate".
bench-scale:
	CLOF_SCALE_OUT=$(CURDIR)/BENCH_scale.json $(GO) test ./internal/memsim -run TestWriteBenchScaleArtifact -count=1 -v
	$(GO) test ./internal/memsim -run XXX -bench 'BenchmarkMachineScale' -benchtime 100ms

# Scripted-benchmark artifact for the sharded serving workload: every CLoF
# composition as the per-shard lock, read-mostly mix, recorded point by
# point into BENCH_kv.json (about 40 s on a 2-CPU host). scripts/check.sh
# step 15 reruns the sweep and compares every point except wall times, so
# regenerate and commit after lock-algorithm or serving-engine changes.
bench-kv:
	$(GO) run ./cmd/clof-bench -workload kv -out $(CURDIR)/BENCH_kv.json
