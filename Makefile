GO ?= go

.PHONY: check vet lint build test race stress bench bench-robust bench-pipeline bench-serve bench-replan bench-fleet bench-durable

# check is the tier-1 verification entry point: static analysis, build, the
# full test suite, and the race detector over the concurrency-sensitive
# packages (evaluation cache, batched rollouts, evaluator, simulator).
check: vet lint build test race

vet:
	$(GO) vet ./...

# lint runs the deeper static analyzers when they are installed; environments
# without them (the default container) skip with a notice rather than fail,
# so `make check` stays runnable everywhere.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run ./...; \
	else \
		echo "lint: staticcheck/golangci-lint not installed, skipping"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race covers the packages with shared mutable state on the evaluation fast
# path (plus the fault/robustness machinery feeding it, the planning service
# whose worker pool shares warm caches across jobs, the telemetry watcher and
# event log hammered by concurrent pushes, the durable store written from
# handlers/workers/monitors at once, and the front router refreshing its
# backend view under concurrent submissions); running the whole tree under
# -race multiplies the RL/experiment test time ~10x for no extra coverage, so
# it is scoped deliberately.
race:
	$(GO) test -race ./internal/agent/... ./internal/cluster/... ./internal/evalcache/... ./internal/core/... ./internal/fleet/... ./internal/plan/... ./internal/sim/... ./internal/faults/... ./internal/service/... ./internal/store/... ./internal/router/... ./internal/telemetry/...

# stress repeats the serving packages' tests to catch ordering races that a
# single run passes by luck (a terminal job state published before its side
# effects, for one).
stress:
	$(GO) test -count=20 ./internal/service/... ./internal/router/... ./internal/store/...

# bench regenerates the evaluation fast-path numbers recorded in
# BENCH_eval.json.
bench:
	$(GO) test -run '^$$' -bench 'EvaluateCold|EvaluateCached|EvaluateBounded|RunEpisodesSequential|RunEpisodesParallel|RunEpisodes64$$|RunEpisodes64Pruned|SimReuse|SimPooledRun' -benchtime 2s -benchmem .

# bench-robust regenerates the fault/replanning exhibit recorded in
# BENCH_robust.json (nominal/p95/worst-case per workload + replan gains).
bench-robust:
	$(GO) run ./cmd/heterog-bench -exp robust -faults 4 -fault-seed 1 -out BENCH_robust.json

# bench-pipeline regenerates the planning-pipeline instrumentation exhibit
# recorded in BENCH_pipeline.json (per-pass timings + recompiles avoided by
# the lowered-artifact cache).
bench-pipeline:
	$(GO) run ./cmd/heterog-bench -exp pipeline -out BENCH_pipeline.json

# bench-serve regenerates the planning-service exhibit recorded in
# BENCH_serve.json: an in-process server driven at several client
# concurrency levels, reporting throughput, p50/p99 latency and the shared
# warm-cache hit rates.
bench-serve:
	$(GO) run ./cmd/heterog-serve -loadgen -queue 16 -out BENCH_serve.json

# bench-replan regenerates the online-replanning exhibit recorded in
# BENCH_replan.json: an in-process server ingests a seeded drift trace at
# POST /v1/jobs/{id}/telemetry, fires automatic warm-agent replans on every
# detected episode, and records the full plan-update event log plus the
# warm-set counters proving replans reattach to shared caches.
bench-replan:
	$(GO) run ./cmd/heterog-serve -driftbench -out BENCH_replan.json

# bench-fleet regenerates the fleet-scheduling exhibit recorded in
# BENCH_fleet.json: four concurrent jobs leased slices of one Testbed64 by
# the fleet allocator vs the same jobs run one at a time on the whole fleet.
# Exits non-zero when the aggregate speedup drops below the threshold.
bench-fleet:
	$(GO) run ./cmd/heterog-serve -fleetbench -out BENCH_fleet.json

# bench-durable regenerates the durable-serving exhibit recorded in
# BENCH_durable.json: a real heterog-serve subprocess on a file store is
# SIGKILLed mid-batch and must recover every accepted job with gap-free event
# logs after restart, then 3 replicas behind the affinity router are measured
# against a single replica on a warm-capacity-bound workload mix. Exits
# non-zero on any lost job, any event-log gap, or aggregate throughput below
# 1.5x one replica.
bench-durable:
	$(GO) run ./cmd/heterog-serve -durablebench -out BENCH_durable.json
