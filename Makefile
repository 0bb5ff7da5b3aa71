# Developer entry points. The repo is plain `go build ./...`-able; the
# targets below bundle the verification and benchmarking recipes.

GO ?= go
# BENCH_SCALE shrinks the benchmark instance (CI smoke runs use 0.25;
# a non-1.0 scale changes the instance, so the regression gate reports
# and skips instead of comparing incomparable numbers).
BENCH_SCALE ?= 1.0
# BENCH_OUT_DIR receives the fresh records of bench-check and
# bench-parallel. Parallel CI jobs give each invocation its own
# directory so they cannot clobber each other's records (the old fixed
# /tmp/BENCH_*.new.json paths collided).
BENCH_OUT_DIR ?= /tmp
# MIN_SPEEDUP gates bench-parallel and bench-ingest: the measured
# speedup must strictly exceed it (0 disables the gate; CI runs 1.5 for
# bench-parallel and 1.0 for bench-ingest on its multi-core runner).
MIN_SPEEDUP ?= 0
# MEM_RATIO gates bench-ingest: the streaming builder's deterministic
# peak must stay under this multiple of the final CSR bytes (0 disables
# the gate; CI runs 2.0 — "never hold the edge list and the CSR
# twice"). Unlike the speedup gate it is enforceable on any machine.
MEM_RATIO ?= 0
# WORKERS_CURVE lists the sched experiment's scaling curve points.
WORKERS_CURVE ?= 1,2,4,8

.PHONY: build test test-race race bench bench-check bench-parallel bench-ingest bench-full serve-smoke apidiff perfbench-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The engine's parallel paths — the root split (with each worker's
# per-root tables), concurrent grids and queries on
# one session (every parallel search on the split), the serve layer
# (registry, write buffer, cache, admission gate) and the public
# Graph's lazy freeze — under the race detector. The root package runs
# only its concurrency hammers (the oracle suites are too slow for
# -race and have no shared state to race on).
test-race:
	$(GO) test -race ./internal/core ./internal/bounds ./internal/graph ./internal/session ./internal/reduce ./internal/serve ./internal/enum
	$(GO) test -race -run 'Concurrent|SnapshotVsApply' .

race: test-race

# Regenerate BENCH_core.json: nodes/sec, allocs/node and the Workers
# 1-vs-4 wall-clock comparison of the branch-and-bound engine on the
# >4096-vertex single-component instance (per-root candidate rows), plus
# the multi-query session experiment (9-cell grid, amortized vs
# independent) embedded under "grid", the dynamic-session experiment
# (single-edge Apply+requery vs NewSession+requery) embedded under
# "delta", and the parallel-search experiment (grid serial vs each
# cell's search split at 4 workers) embedded under "sched", and the
# paper-scale ingest experiment (streaming CSR build from SNAP text,
# degeneracy pre-prune, component-parallel reduction on the
# ~2.2M-edge IngestGiant instance) embedded under "ingest", and the
# anytime experiment (the gap-vs-budget curve:
# MaxNodes runs at fractions of the exact run's node count with
# certified optimality gaps; hard-fails if the unbudgeted run reports
# inexact or any budgeted run breaks the incumbent <= optimum <=
# certificate sandwich) embedded under "anytime".
# Future engine PRs compare against the committed record (bench-check).
bench:
	$(GO) run ./cmd/benchmark -exp core -out BENCH_core.json
	$(GO) run ./cmd/benchmark -exp grid -merge BENCH_core.json -out /dev/null
	$(GO) run ./cmd/benchmark -exp delta -merge BENCH_core.json -out /dev/null
	$(GO) run ./cmd/benchmark -exp sched -workers-curve $(WORKERS_CURVE) -merge BENCH_core.json -out /dev/null
	$(GO) run ./cmd/benchmark -exp ingest -merge BENCH_core.json -out /dev/null
	$(GO) run ./cmd/benchmark -exp anytime -merge BENCH_core.json -out /dev/null
	$(GO) run ./cmd/benchmark -exp enum -min-speedup 5 -merge BENCH_core.json -out /dev/null
	@cat BENCH_core.json

# Re-measure and diff against the committed BENCH_core.json: prints a
# per-workers delta table and fails loudly when nodes/sec regresses by
# more than 10% on the same instance. The grid and delta experiments
# hard-fail when a session answer diverges from its independent run.
# The anytime experiment is the end-to-end run of a bounded search on
# a >4096-vertex component (per-root rows, per-node bound included): it
# hard-fails if its unbudgeted run reports inexact or any node-budgeted
# run breaks the incumbent <= optimum <= certificate sandwich.
# CI uploads the fresh records as a workflow artifact (see ci.yml).
bench-check:
	@mkdir -p $(BENCH_OUT_DIR)
	$(GO) run ./cmd/benchmark -exp core -scale $(BENCH_SCALE) -baseline BENCH_core.json -out $(BENCH_OUT_DIR)/BENCH_core.new.json
	$(GO) run ./cmd/benchmark -exp grid -scale $(BENCH_SCALE) -out $(BENCH_OUT_DIR)/BENCH_grid.new.json
	$(GO) run ./cmd/benchmark -exp delta -scale $(BENCH_SCALE) -out $(BENCH_OUT_DIR)/BENCH_delta.new.json
	$(GO) run ./cmd/benchmark -exp anytime -scale $(BENCH_SCALE) -out $(BENCH_OUT_DIR)/BENCH_anytime.new.json

# Measure parallel search: the same grid serial (W1) and with each
# cell's search on the private root split (W4), plus the WORKERS_CURVE
# scaling curve. With MIN_SPEEDUP > 0 the run exits 1 unless the
# W4/W1 speedup strictly exceeds it — the CI parallel gate (requires a
# multi-core machine).
bench-parallel:
	@mkdir -p $(BENCH_OUT_DIR)
	$(GO) run ./cmd/benchmark -exp sched -scale $(BENCH_SCALE) -workers-curve $(WORKERS_CURVE) -min-speedup $(MIN_SPEEDUP) -out $(BENCH_OUT_DIR)/BENCH_sched.new.json

# The paper-scale ingest pipeline: stream the SNAP text of the
# IngestGiant instance into a CSR, degeneracy-prune it at the fairness
# floor, reduce serial vs component-parallel, and answer the planted
# query. The generated SNAP pair is cached under
# $(BENCH_OUT_DIR)/instance (the CI job caches that directory between
# runs). MEM_RATIO > 0 hard-fails when the builder's deterministic peak
# reaches that multiple of the final CSR bytes; MIN_SPEEDUP > 0
# hard-fails unless parallel reduction beats serial (multi-core only).
bench-ingest:
	@mkdir -p $(BENCH_OUT_DIR)
	$(GO) run ./cmd/benchmark -exp ingest -scale $(BENCH_SCALE) -min-speedup $(MIN_SPEEDUP) -max-mem-ratio $(MEM_RATIO) -graph-dir $(BENCH_OUT_DIR)/instance -out $(BENCH_OUT_DIR)/BENCH_ingest.new.json

# Boot the real mfcd binary on a random port and walk every endpoint
# with curl: upload, rejected garbage, query (fresh + cached), grid,
# buffered mutation + flush barrier, metrics, blacklist, delete. Hard
# fails on any unexpected status and on the differential check (a
# graph mutated through deltas must answer exactly like the same graph
# uploaded fresh). The transcript lands in
# $(BENCH_OUT_DIR)/serve-smoke/smoke.log (a CI artifact).
serve-smoke:
	@mkdir -p $(BENCH_OUT_DIR)/serve-smoke
	OUT_DIR=$(BENCH_OUT_DIR)/serve-smoke sh scripts/serve_smoke.sh

# The API-compatibility gate: diff the public fairclique package's
# exported surface against the previous commit with apidiff, failing
# on incompatible changes unless an `api-break` file at the repo root
# acknowledges them (see scripts/apidiff.sh). Skips gracefully when
# the tool is not installed; CI installs golang.org/x/exp/cmd/apidiff
# on the runner and pins the base to the PR's base commit.
apidiff:
	sh scripts/apidiff.sh

# The benchmark harness is a module of its own (perfbench/go.mod), so
# build, vet and test at the root never compile it. Vet it and run its
# smoke test: every workload at reduced size, every metric present and
# finite, failed 0, and a wrong reference counted as a failure.
perfbench-smoke:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The full paper-evaluation suite (slow; writes Markdown to stdout).
bench-full:
	$(GO) run ./cmd/benchmark -exp all -scale 0.5
