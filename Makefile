GO ?= go

.PHONY: check lint build test race bench-concurrency bench-quick bench-build bench-vcache bench-serve bench-tenants

# The pre-merge gate: vet + lint + build + full suite under the race detector,
# the bench smokes, and the benchmark module's vet, tests and smoke run.
check:
	sh scripts/check.sh

# Project-specific static analysis (sqlcheck, lockcheck, lockordercheck,
# atomiccheck, arenacheck, allocheck, errcheck, plus stale-waiver hygiene) —
# see internal/analysis and DESIGN.md §8 and §12.
lint:
	$(GO) run ./cmd/ptldb-analyze ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Concurrency scaling of the sharded buffer pool (see BENCH_concurrency.json).
# Each benchmark sweeps g=1,4,8 client goroutines internally.
bench-concurrency:
	$(GO) test -run '^$$' -bench 'BenchmarkConcurrent' -benchtime 1s .

# Preprocessing scaling: the ptldb-bench "build" experiment sweeps the
# BuildWorkers knob over fresh builds (see BENCH_build.json), and the
# serial-vs-parallel TTL benchmark isolates label construction.
bench-build:
	$(GO) run ./cmd/ptldb-bench -exp build -cities Austin,Berlin -scale 0.02 -q
	$(GO) test -run '^$$' -bench 'BenchmarkBuildParallel' -benchtime 1x ./internal/ttl

# Resident vector cache vs the segment read path, warm (see
# BENCH_vcache.json); the budget sweep lives in `ptldb-bench -exp vcache`.
bench-vcache:
	$(GO) test -run '^$$' -bench 'BenchmarkVCache' -benchtime 100x .

# Open-loop load on the serving layer (see BENCH_serve.json): fixed
# per-client arrival rate, p50/p99/p999 + qps across client counts,
# coalescing on vs off; hard-fails if the coalescing probe shares nothing
# or the server does not drain cleanly.
bench-serve:
	$(GO) run ./cmd/ptldb-bench -exp serve -cities Austin -scale 0.05 -queries 1000 -q

# Cross-tenant isolation on the multi-city server (see BENCH_tenants.json):
# a warm city's p99 measured alone vs beside a stone-cold churning
# neighbour, median of three windows per cell; hard-fails if either tenant
# answers differently from a direct handle or the rollup /obs totals drift
# from the per-tenant sums.
bench-tenants:
	$(GO) run ./cmd/ptldb-bench -exp tenants -cities "Austin,Salt Lake City" \
	    -scale 0.05 -queries 1000 -serve-duration 10s -q

# Smoke run of the fused-vs-general executor benchmarks (see BENCH_exec.json):
# a few iterations each, enough to catch fused-path fallbacks or crashes
# without the full measurement cost.
bench-quick:
	$(GO) test -run '^$$' -bench 'BenchmarkFusedExec' -benchtime 5x .
