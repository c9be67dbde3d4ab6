#!/bin/sh
# Full pre-merge gate: formatting, vet, project lint, build, and the whole
# test suite under the race detector with shuffled test order, then once more
# with module-wide coverage, which must reach every function outside cmd/ and
# examples/, the general SQL engine's coverage by its callers alone,
# 10-second fuzzes of the HTTP time parameter, of the segment codec's two
# row decoders and of the segment open pass, then the benchmark module
# (benchmark/ is a module of its own, invisible to ./...), the four examples,
# a look at what ptldb-build leaves in a database directory, the console on it, and what
# becomes of that directory once its catalog stops declaring the label run
# order, the target-id bound, the EA condensed floor or the EA one-to-many
# target count. Also available as `make check`.
set -eu
cd "$(dirname "$0")/.."
img=$(mktemp -d)
trap 'rm -rf "$img"' EXIT

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi
echo "== no executor switch, no fallback (outside tests and benchmark/)"
if git grep -nE 'ErrNotFused|DisableFusedExec|FusedOff' -- '*.go' ':!*_test.go' ':!benchmark'; then
    echo "a fused plan answers or errors, and nothing a user can set selects an executor" >&2
    exit 1
fi
echo "== no grouping hash, no label re-sort, no accumulator hash"
if git grep -nE 'gidx|tupleGroup|ensureLabelOrder|flatIndex|findOrAdd' -- '*.go'; then
    echo "a label's run order and a target id's bound are BulkLoad's to check and the kernels' to trust:" >&2
    echo "grouping walks the runs, and the per-target accumulator is an array indexed by the id" >&2
    exit 1
fi
echo "== one lock analysis on one engine (internal/analysis)"
if git grep -nE 'caseBodies|loopBody|blockingFuncs|shardMutexFields|hasDefaultClause' -- 'internal/analysis/*.go'; then
    echo "lockcheck is transfer functions over cfg.go's solver and reads lockordercheck's facts:" >&2
    echo "no statement interpreter, no second call-summary fixpoint, no second annotation reader" >&2
    exit 1
fi
echo "== atomics are typed: no sync/atomic function calls (outside testdata)"
# A typed atomic (atomic.Uint64, atomic.Pointer, ...) cannot be read without
# its methods, and go vet's copylocks check rejects copying one; a plain field
# handed to atomic.AddUint64 and the like can be read plainly and race.
if git grep -nE 'atomic\.(Add|Load|Store|Swap|CompareAndSwap|And|Or)(Int32|Int64|Uint32|Uint64|Uintptr|Pointer)\(' -- '*.go' ':!**/testdata/**'; then
    echo "use a typed atomic (sync/atomic's Int64, Uint64, Bool, Pointer, ...), not a sync/atomic function on a plain field" >&2
    exit 1
fi
echo "== the lint suite keeps only checkers that can fire; no error collector, no row clone, no parallel measure"
if git grep -nE 'NewAtomicCheck|NewArenaCheck|errCollector|cloneRows|MeasureQueriesParallel' -- '*.go'; then
    echo "atomiccheck and arenacheck are deleted (DESIGN.md §8 tables what catches their violations);" >&2
    echo "sqldb.RunJobs reports into one error slot per job, a target set has one naive table, ptldb-bench measures sequentially" >&2
    exit 1
fi
echo "== statements are values: no plan cache, no lint-time SQL, one statement builder in core"
if git grep -nE 'CachedPrepare|NewSQLCheck|substFormatVerbs' -- '*.go'; then
    echo "core prepares each statement once, when its tables appear, and keeps it (internal/core/stmts.go):" >&2
    echo "no text-keyed plan cache, and no lint checker re-parsing statements" >&2
    exit 1
fi
if git grep -nE 'exec\.SQL|\.Prepare\(' -- 'internal/core/*.go' ':!internal/core/*_test.go' ':!internal/core/stmts.go'; then
    echo "only internal/core/stmts.go formats a statement of exec/codes.go or calls Prepare" >&2
    exit 1
fi
if go list -deps ./cmd/ptldb-analyze | grep ptldb/internal/sqldb; then
    echo "ptldb-analyze links no part of the SQL engine" >&2
    exit 1
fi
echo "== identical requests are separate executions (internal/serve)"
if git grep -nE 'coalescer|newCoalescer|runFlight' -- 'internal/serve/*.go'; then
    echo "every admitted query is its own execution: admit, then await (internal/serve/serve.go);" >&2
    echo "no request coalescer, no shared flight" >&2
    exit 1
fi
echo "== a label-build search is one scan (internal/ttl)"
if git grep -nE 'streamHeap|openForwardStream|insertForward|insertBackward' -- 'internal/ttl'; then
    echo "each profile search is one scan over the time-sorted connections: no per-stop stream heap" >&2
    exit 1
fi
echo "== one in-memory label query, one earliest-arrival tree (internal/, cmd/)"
if git grep -nE 'EarliestArrivalUnified|LatestDepartureUnified|ShortestDurationUnified|scanWithParents' -- 'internal/*.go' 'cmd/*.go'; then
    echo "ttl.Labels answers EA / LD / SD in memory through the single join the database runs, on augmented" >&2
    echo "labels; path expansion walks csa.EarliestArrivalTree, the scan csa.EarliestArrivalJourney walks" >&2
    exit 1
fi
echo "== a fused statement binds its tables at Prepare (internal/sqldb/exec)"
if git grep -nE 'RunOrdered|TargetBounded|Floored|ScratchTable|MetricsSource|lookupPKScratch|scanScratch|execMetrics|resolveSlow|SetVectorCache' -- '*.go' ':!*_test.go'; then
    echo "exec.Fuse looks a plan's tables up and checks their declarations once; every exec.Table and" >&2
    echo "exec.Catalog method is required: no optional table interface, no fallback, no per-query lookup" >&2
    exit 1
fi
echo "== the buffer pool is one LRU under one mutex (internal/sqldb/storage, internal/tenant)"
if git grep -nE 'poolShard|perShard|\.shards\b|defaultPoolPages' -- 'internal/sqldb/storage/*.go' 'internal/tenant/*.go' ':!*_test.go'; then
    echo "storage.Pool is one frame table, one LRU list and one mutex, and sqldb.DefaultPoolPages is the" >&2
    echo "one pool default: no shards, no per-shard capacity, no mirrored default" >&2
    exit 1
fi
echo "== the vector cache admits a table once and never evicts (internal/sqldb; the pool's LRU is storage's)"
if git grep -nE 'evictLocked|evictEntryLocked|DropAll|second-chance|\.hand\b' -- 'internal/sqldb/*.go' ':!internal/sqldb/storage/*' ':!*_test.go'; then
    echo "sqldb.Open decides each table's admission once, on what the tables before it left of the budget;" >&2
    echo "an admitted table keeps its vectors for the handle's life:" >&2
    echo "no clock ring, no hand, no eviction, no DropAll (DB.DropCaches leaves the vectors Open decoded)" >&2
    exit 1
fi
echo "== a vector-cache table is decoded in one pass (internal/sqldb)"
if git grep -nE 'CountSegRow|DecodeSegRowColumns' -- '*.go'; then
    echo "Table.decode sizes a table's vectors from the varints open counted and decodes each row once," >&2
    echo "with sqltypes.DecodeSegRowVectors, into row-major array vectors: no counting pass, no per-column vectors" >&2
    exit 1
fi
echo "== a vector-cache table is decoded at open from the bytes open verified (internal/sqldb)"
if git grep -nE 'LoadData|OpenSegmentObserved|vcacheMat|\.Unload\(' -- '*.go'; then
    echo "storage.OpenSegment keeps the data region it checksums for the decode, and sqldb.Open decodes" >&2
    echo "every admitted table before it returns: no second read of a data region, no lazy build, no unload" >&2
    exit 1
fi
echo "== the read tiers serve immutable memory: no pin, no load latch, no publish (internal/sqldb)"
if git grep -nE 'Unpin|loadErr|failLoad|loadHook|\.pins\b' -- 'internal/sqldb/storage/*.go' ':!*_test.go'; then
    echo "a pool frame's bytes never change and the garbage collector keeps an evicted one alive for its" >&2
    echo "readers: storage.Pool.Get returns the bytes, with no pin to release and no per-frame load latch" >&2
    exit 1
fi
if git grep -nE 'vcache\.Entry|\.Publish\(' -- 'internal/sqldb'; then
    echo "a table holds the vectors Open decoded as a plain field, set before Open returns:" >&2
    echo "no entry, no publish, no compare-and-swap" >&2
    exit 1
fi
echo "== vectors are Open's: only sqldb.Open admits and decodes a table, and nothing drops one"
if git grep -nE 'vcache\.Cache|admitHook|dropVectors|DropTable|DropTargetSet|seg\.Offer|sqldb/vcache' -- '*.go'; then
    echo "sqldb.Open admits tables on a running sum of its budget in catalog order and decodes them before it" >&2
    echo "returns; a table BulkLoad writes reads its segment until the directory is opened again:" >&2
    echo "no shared account, no admission after Open, no drop path" >&2
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
echo "== go test ./... with statement coverage of the module"
# Its own run: every statement of the module counted under the race detector
# takes the root package's tests to the edge of the ten-minute timeout.
go test -coverpkg=./... -coverprofile=coverage.out ./... > /dev/null
echo "sqldb/* statement coverage, all packages merged (reported, not gated):"
{ head -n 1 coverage.out; grep '^ptldb/internal/sqldb/' coverage.out; } > "$img/sqldb.out"
go tool cover -func="$img/sqldb.out" | tail -n 1
echo "== every function outside cmd/ and examples/ is reached by some test"
# A function no test reaches is dead, and is deleted, or is used untested, and
# gets a test. Two have nothing to reach or no caller to have: isExpr is the
# AST's marker method (no statements), and Loader.Import completes
# types.ImporterFrom, whose users call ImportFrom alone.
unreached=$(go tool cover -func=coverage.out |
    awk '$3 == "0.0%" && $1 !~ /^ptldb\/(cmd|examples)\// && $2 != "isExpr" &&
        !($1 ~ /analysis\/load\.go/ && $2 == "Import")')
if [ -n "$unreached" ]; then
    echo "functions no test reaches:" >&2
    echo "$unreached" >&2
    exit 1
fi
echo "== the general SQL engine as its callers reach it (every package outside internal/sqldb)"
# The merged total above counts a construct as covered when the engine's own
# unit test for it runs. This profile leaves those tests out: what it does not
# reach, no caller uses — the console and the differential batteries are the
# engine's two roles. A function nothing reaches is a capability to delete.
# (isExpr is the AST's marker method: no statements to reach.)
go test -coverpkg=./internal/sqldb/sql,./internal/sqldb/exec -coverprofile="$img/callers.out" \
    $(go list ./... | grep -v /internal/sqldb) > /dev/null
echo "sqldb/sql + sqldb/exec statement coverage, callers only (reported; a function at 0 % fails):"
go tool cover -func="$img/callers.out" | tail -n 1
unreached=$(go tool cover -func="$img/callers.out" |
    awk '$1 ~ /sqldb\/sql\/|sqldb\/exec\/(exec|expr|from)\.go/ && $2 != "isExpr" && $3 == "0.0%"')
if [ -n "$unreached" ]; then
    echo "general-engine functions no caller outside internal/sqldb reaches:" >&2
    echo "$unreached" >&2
    exit 1
fi
echo "== fuzz smoke: an accepted time parameter is the 32-bit time it spells (internal/serve)"
go test -run '^$' -fuzz '^FuzzTimeParam$' -fuzztime 10s ./internal/serve
echo "== fuzz smoke: the vector decoder agrees with the row decoder (internal/sqldb/sqltypes)"
go test -run '^$' -fuzz '^FuzzSegCodecRoundTrip$' -fuzztime 10s ./internal/sqldb/sqltypes
echo "== fuzz smoke: a rejected segment leaves no page in the pool, an accepted one only its own (internal/sqldb/storage)"
go test -run '^$' -fuzz '^FuzzOpenSegment$' -fuzztime 10s -fuzzminimizetime 50x ./internal/sqldb/storage
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
echo "== the four examples run (the facade's write-then-query flows)"
for ex in quickstart poifinder geomarketing journeyplanner; do
    go run "./examples/$ex" > /dev/null
done
echo "== built image holds segments and the catalog only"
go run ./cmd/ptldb-build -city Austin -scale 0.01 -targets 0.1:4 -db "$img/db" > /dev/null
stray=$(ls -A "$img/db" | grep -v -e '\.seg$' -e '^catalog\.json$' || true)
if [ -n "$stray" ] || [ ! -f "$img/db/lout.seg" ]; then
    echo "ptldb-build left something other than <table>.seg and catalog.json:" >&2
    ls -A "$img/db" >&2
    exit 1
fi
echo "== the console runs Code 1 with its parameters and answers what ptldb-query ea answers"
code1='WITH outp AS (SELECT UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta FROM lout WHERE v=$1),
  inp AS (SELECT UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta FROM lin WHERE v=$2)
  SELECT MIN(inp.ta) FROM outp, inp WHERE outp.hub=inp.hub AND outp.ta<=inp.td AND outp.td>=$3'
go build -o "$img/ptldb-query" ./cmd/ptldb-query
want=$("$img/ptldb-query" -db "$img/db" ea 0 1 0 | sed -n 's/.*(\([0-9]*\))$/\1/p')
got=$("$img/ptldb-query" -db "$img/db" sql "$code1" 0 1 0 | sed -n 2p | tr -d '\t')
if [ -z "$want" ] || [ "$got" != "$want" ]; then
    echo "ptldb-query sql '<Code 1>' 0 1 0 answers '$got', ptldb-query ea 0 1 0 answers '$want'" >&2
    exit 1
fi
if out=$("$img/ptldb-query" -db "$img/db" sql "$code1" 0 one 0 2>&1) || ! echo "$out" | grep -q 'usage:.*\$2'; then
    echo "a non-integer parameter was not a usage error naming \$2:" >&2
    echo "$out" >&2
    exit 1
fi
echo "== an image whose catalog stops declaring the label run order, the target-id bound, the EA floor or the target count does not open"
# The kernels search a label's runs unchecked, index an array by a condensed
# row's target ids and stop an EA sweep by the floor of its arrivals and, for a
# one-to-many, by the count of its targets, so an image that does not declare
# them — any built before the declaration existed — must be refused, not
# answered from. A key the catalog reader does not know is ignored: renaming
# it undeclares. "count" names no other key of the catalog.
go run ./cmd/ptldb-query -db "$img/db" ea 0 1 0 > /dev/null
cp "$img/db/catalog.json" "$img/catalog.built"
for decl in 'run_order:run order' 'target_ids:target ids' 'floor:floor' 'count:target count'; do
    key=${decl%%:*} says=${decl#*:}
    sed "s/\"$key\"/\"${key}_of_an_older_build\"/" "$img/catalog.built" > "$img/db/catalog.json"
    if cmp -s "$img/catalog.built" "$img/db/catalog.json"; then
        echo "the built catalog does not declare $key" >&2
        exit 1
    fi
    if out=$(go run ./cmd/ptldb-query -db "$img/db" ea 0 1 0 2>&1) || ! echo "$out" | grep -q "$says.*rebuild"; then
        echo "ptldb-query on an image without $key did not fail with the rebuild message:" >&2
        echo "$out" >&2
        exit 1
    fi
done
echo "== OK"
