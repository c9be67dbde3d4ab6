GO ?= go

.PHONY: check lint build test race bench-quick

# The pre-merge gate: gofmt + vet + lint + build + full suite under the race
# detector (printing sqldb/* statement coverage), the allocs ratchet, the
# fused-executor and parallel-build bench smokes, and the benchmark module's
# vet, tests and smoke run.
check:
	sh scripts/check.sh

# Project-specific static analysis (lockcheck, lockordercheck, atomiccheck,
# arenacheck, allocheck, errcheck, plus stale- and unknown-waiver hygiene) —
# see internal/analysis and DESIGN.md §8 and §12.
lint:
	$(GO) run ./cmd/ptldb-analyze ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Smoke run of the fused-vs-general executor benchmark — the one place the
# reference executor is timed: a few iterations each, enough to catch
# fused-path fallbacks or crashes without the full measurement cost. System
# performance is measured by benchmark/ (sh benchmark/run.sh).
bench-quick:
	$(GO) test -run '^$$' -bench 'BenchmarkFusedExec' -benchtime 5x .
