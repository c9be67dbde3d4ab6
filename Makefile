GO ?= go

.PHONY: check lint build test race bench-quick

# The pre-merge gate: gofmt + vet + lint + build + full suite under the race
# detector (printing sqldb/* statement coverage), the allocs ratchet, the
# fused-executor and parallel-build bench smokes, and the benchmark module's
# vet, tests and smoke run.
check:
	sh scripts/check.sh

# Project-specific static analysis (lockcheck, allocheck, errcheck, plus
# stale- and unknown-waiver hygiene) — see internal/analysis and DESIGN.md
# §8 and §12.
lint:
	$(GO) run ./cmd/ptldb-analyze ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Smoke run of the fused-vs-general executor benchmark — the one place the
# reference executor is timed: a few iterations of each of its 14
# sub-benchmarks, enough to catch fused-path fallbacks or crashes without the
# full measurement cost. Its database is ptldb-bench's dataset cache (Austin
# at scale 0.02 under $TMPDIR/ptldb-bench-cache), built on first use. System
# performance is measured by benchmark/ (sh benchmark/run.sh).
bench-quick:
	$(GO) test -run '^$$' -bench 'BenchmarkFusedExec' -benchtime 5x .
