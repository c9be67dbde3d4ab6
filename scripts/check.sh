#!/bin/sh
# Full pre-merge gate: formatting, vet, project lint, build, and the whole
# test suite under the race detector with shuffled test order, then the
# benchmark module (benchmark/ is a module of its own, invisible to ./...) and
# a look at what ptldb-build leaves in a database directory and at the join
# its v2v plans take.
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
echo "== go test -race -shuffle on ./... (with statement coverage of internal/sqldb/...)"
go test -race -shuffle on -coverpkg=./internal/sqldb/... -coverprofile=coverage.out ./...
echo "sqldb/* statement coverage, all packages merged (reported, not gated):"
go tool cover -func=coverage.out | tail -n 1
echo "== fused allocs/op ratchet (no race detector)"
go test -run 'TestFusedAllocsBudget' -count=1 .
echo "== bench smoke (fused executor, 5 iterations)"
go test -run '^$' -bench 'BenchmarkFusedExec' -benchtime 5x .
echo "== bench smoke (parallel build, 1 iteration)"
go test -run '^$' -bench 'BenchmarkBuildParallel/workers=GOMAXPROCS' -benchtime 1x ./internal/ttl
echo "== benchmark module (vet, tests, smoke run of all four workloads)"
go -C benchmark vet .
go -C benchmark test .
go -C benchmark run . -smoke > /dev/null
echo "== built image holds segments and the catalog only"
img=$(mktemp -d)
trap 'rm -rf "$img"' EXIT
go run ./cmd/ptldb-build -city Austin -scale 0.01 -targets 0.1:4 -db "$img/db" > /dev/null
stray=$(ls -A "$img/db" | grep -v -e '\.seg$' -e '^catalog\.json$' || true)
if [ -n "$stray" ] || [ ! -f "$img/db/lout.seg" ]; then
    echo "ptldb-build left something other than <table>.seg and catalog.json:" >&2
    ls -A "$img/db" >&2
    exit 1
fi
echo "== built image declares the label run order (v2v plans show RunJoin)"
# Both joins give the same answers, so only the plan shows a build that
# silently stopped declaring.
for plan in v2v-ea v2v-ld v2v-sd; do
    if ! go run ./cmd/ptldb-query -db "$img/db" plan "$plan" | grep -q 'RunJoin'; then
        echo "ptldb-query plan $plan does not show the run-order join:" >&2
        go run ./cmd/ptldb-query -db "$img/db" plan "$plan" >&2
        exit 1
    fi
done
echo "== OK"
