#!/bin/sh
# Full pre-merge gate: formatting, vet, project lint, build, and the whole
# test suite under the race detector with shuffled test order, then the
# benchmark module (benchmark/ is a module of its own, invisible to ./...).
# Also available as `make check`.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi
echo "== go vet ./..."
go vet ./...
echo "== ptldb-analyze ./... (project lint)"
go run ./cmd/ptldb-analyze ./...
echo "== go build ./..."
go build ./...
echo "== go test -race -shuffle on ./..."
go test -race -shuffle on ./...
echo "== fused allocs/op ratchet (no race detector)"
go test -run 'TestFusedAllocsBudget' -count=1 .
echo "== bench smoke (fused executor, 5 iterations)"
go test -run '^$' -bench 'BenchmarkFusedExec' -benchtime 5x .
echo "== bench smoke (resident vector cache, 5 iterations)"
go test -run '^$' -bench 'BenchmarkVCache' -benchtime 5x .
echo "== bench smoke (parallel build, 1 iteration)"
go test -run '^$' -bench 'BenchmarkBuildParallel/workers=4' -benchtime 1x ./internal/ttl
echo "== serve smoke (open-loop harness: coalescing must share, server must drain)"
go run ./cmd/ptldb-bench -exp serve -cities Austin -scale 0.02 -queries 64 \
    -serve-clients 4 -serve-duration 300ms -q > /dev/null
echo "== tenants smoke (two cities, one process: answers must match direct handles, rollup /obs must sum per-tenant counters)"
go run ./cmd/ptldb-bench -exp tenants -cities "Austin,Salt Lake City" -scale 0.02 \
    -queries 32 -serve-duration 300ms -q > /dev/null
echo "== benchmark module (vet, tests, smoke run of all four workloads)"
go -C benchmark vet .
go -C benchmark test .
go -C benchmark run . -smoke > /dev/null
echo "== OK"
