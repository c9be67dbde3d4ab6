#!/bin/sh
# Full pre-merge gate: formatting; the ratchets that keep a deleted mechanism
# deleted (one executor, one image file, one probe order — one counting pass
# per byte of the bucket span, no comparison-sort fallback —, one measuring
# regime and no chart or trace aggregator in ptldb-bench, one trace hook
# fixed at Open, one owner per decision — only sqldb writes a segment, one
# dataset cache, obs.Code the one list of the statements, no vertex-order
# knob —, a resident label that keeps its hubs as runs, a label's tds and tas
# packed per hub run, one row decoder for both read tiers, and the rest below); vet, project lint, build, and the whole test suite under the race
# detector with shuffled test order, then once more with module-wide
# coverage, which must reach every function outside cmd/ and examples/, the
# general SQL engine's coverage by its callers alone, 10-second fuzzes of the
# HTTP time parameter, of the HTTP query bodies, of the segment codec's one
# row decoder (runs columns and their packed siblings included) and of a walk of back-to-back segments, the two allocation
# ratchets, the four examples, a small ptldb-bench run that must end with
# the claim table and judge every claim, a look at what ptldb-build leaves in a
# database directory (the image, nothing else), the console on it, what
# becomes of an image whose tables stop declaring the label run order, the
# target-id bound, the EA condensed floor or the EA one-to-many target count,
# and last the benchmark module (benchmark/ is a module of its own, invisible
# to ./...), so that a failure there stops no other step. Also available as
# `make check`.
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
    echo "a label's run order and a target id's bound are Load's to check and the kernels' to trust:" >&2
    echo "grouping walks the runs, and the per-target accumulator is an array indexed by the id" >&2
    exit 1
fi
echo "== one lock rule, one lock checker on one engine (internal/analysis)"
if git grep -nE 'caseBodies|loopBody|blockingFuncs|shardMutexFields|hasDefaultClause' -- 'internal/analysis/*.go'; then
    echo "lockcheck is transfer functions over cfg.go's solver, with its own annotation reader and one summary fixpoint:" >&2
    echo "no statement interpreter, no second call-summary fixpoint, no second annotation reader" >&2
    exit 1
fi
if git grep -nE 'lockordercheck|NewLockOrderCheck|lockcheck:shard|lockcheck:latch|stronglyConnected|level=[0-9]' -- '*.go'; then
    echo "a held lockcheck:leaf mutex is a leaf (DESIGN.md §8.1), so no lock can wait on another:" >&2
    echo "no lock-order graph or checker, no latch class, no shard class, no acquisition levels" >&2
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
echo "== a tenant opens once and stays open (internal/tenant, internal/serve, cmd/)"
if git grep -nE 'evictLocked|\.pins\b|\.opening\b|lastUse|OpenCount' -- 'internal/tenant/*.go' 'internal/serve/*.go' ':!*_test.go'; then
    echo "a tenant's database opens on its first Acquire, once, and stays open until Router.Close:" >&2
    echo "no LRU, no eviction, no pin, no opening latch, no open count (DESIGN.md §14.1)" >&2
    exit 1
fi
if git grep -n 'max-open' -- 'cmd/'; then
    echo "ptldb-serve has no -max-open: no tenant is closed before shutdown, and budgets divide by the tenant count" >&2
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
echo "== the probe order is one counting pass per byte (internal/sqldb/exec)"
if git grep -nE 'maxCountedBuckets|st\.order\b' -- 'internal/sqldb/exec'; then
    echo "orderGroups sorts the groups themselves by bucket, one stable counting pass per byte of their span" >&2
    echo "(DESIGN.md §7.4): no bucket-span limit, no comparison-sort fallback, no index permutation" >&2
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
echo "== a vector-cache table is decoded in one pass, by the one row decoder (internal/sqldb)"
if git grep -nE 'CountSegRow|DecodeSegRowColumns|DecodeSegRowVectors' -- '*.go' ||
    git grep -nE 'type Col\b|\bCols\b' -- internal/sqldb/vectors.go; then
    echo "Table.decode sizes a table's vectors from the element count its segment's header records and decodes" >&2
    echo "each row once, with sqltypes.DecodeSegRowInto (the segment tier's row decoder), into row-major array" >&2
    echo "vectors carved out of one arena: no counting pass, no per-column vectors, no second row decoder, and a" >&2
    echo "Mat holds its vectors and no column views of them (DESIGN.md §11)" >&2
    exit 1
fi
echo "== a table's vector size comes from its segment's header (outside tests)"
if git grep -nE 'CountSegVarints' -- '*.go' ':!*_test.go'; then
    echo "the meta of a segment's header records the int32 count of its table's resident vectors (an INT[]" >&2
    echo "column's elements, two per run of a runs column), and sqldb.Open admits a table on it before a data" >&2
    echo "page is read: no varint count, no admission chunk by chunk (DESIGN.md §11)" >&2
    exit 1
fi
echo "== array elements are 32-bit, from the value to the kernels (internal/sqldb)"
if git grep -nE '^[[:space:]]*A[[:space:]]+\[\]int64' -- internal/sqldb/sqltypes/value.go ||
    git grep -nE '^[[:space:]]*Elems[[:space:]]+\[\]int64' -- internal/sqldb/vectors.go ||
    git grep -nE '^[[:space:]]*Arena[[:space:]]+\[\]int64' -- internal/sqldb/exec/catalog.go ||
    git grep -nE 'hubs, ends, tds, tas[[:space:]]+\[\]int64' -- internal/sqldb/exec/fused_state.go; then
    echo "an INT[] element is an int32 everywhere: sqltypes.Value.A, the vector cache's Elems, the row scratch's" >&2
    echo "Arena and the fused kernels' label; a kernel widens an element where it loads it (DESIGN.md §7)" >&2
    exit 1
fi
echo "== the resident label keeps its hubs as runs (internal/sqldb)"
if git grep -nE 'firstGT(From)?\([^,]*hubs' -- 'internal/sqldb/exec/*.go' ':!*_test.go' ||
    git grep -nE 'ExpandRuns' -- 'internal/sqldb/exec/*.go' internal/sqldb/vectors.go ':!*_test.go' ||
    git grep -nE '^[[:space:]]*Hubs[[:space:]]' -- internal/sqldb/vectors.go; then
    echo "a runs column (a label's hubs) stays in its run form from the segment to the kernels: the vectors" >&2
    echo "keep two int32s per run, LookupPKScratch serves them as an sqltypes.IntRuns value from both tiers, and a" >&2
    echo "kernel takes a run's end from the next run's start; only LookupPK and Scan, the general executor's row" >&2
    echo "view, expand them (DESIGN.md §7.2, §11): no search for a run's end over hubs, no expanded hubs vector" >&2
    exit 1
fi
echo "== a label's tds and tas are packed per hub run, not stored as delta varints (internal/sqldb)"
if git grep -nE 'IntRuns, (sqltypes\.)?IntArray, (sqltypes\.)?IntArray' -- '*.go' ||
    ! git grep -qE 'stored\[runOrder\[1\]\] = sqltypes\.IntRunGaps' -- internal/sqldb/table.go ||
    ! git grep -qE 'stored\[runOrder\[2\]\] = sqltypes\.IntRunOffsets' -- internal/sqldb/table.go; then
    echo "storedTypes stores a run order's two siblings packed per run of its runs column (sqltypes.IntRunGaps," >&2
    echo "sqltypes.IntRunOffsets): no run-ordered row whose siblings are INT[] delta varints, in the codec's" >&2
    echo "callers or its tests (DESIGN.md §10)" >&2
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
echo "== vectors are Open's: only sqldb.Open admits and decodes a table, and only Close drops one"
if git grep -nE 'vcache\.Cache|admitHook|dropVectors|DropTable|DropTargetSet|seg\.Offer|sqldb/vcache' -- '*.go'; then
    echo "sqldb.Open admits tables on a running sum of its budget in image order and decodes them before it" >&2
    echo "returns; a table Load writes reads its segment in the image the Load committed until the directory" >&2
    echo "is opened again: no shared account, no admission after Open, no drop path" >&2
    exit 1
fi
echo "== a database directory is one self-describing image (internal/sqldb)"
if git grep -nE 'segPath|Name *\+ *"\.seg"' -- '*.go' ':!*_test.go'; then
    echo "sqldb.Open reads every table from the directory's one image, walked by the segments' own headers:" >&2
    echo "no file per table to open, no per-table segment path (a Load writes its tables into the next image)" >&2
    exit 1
fi
if git grep -nE 'catalog\.json|catalogPath|writeSynced' -- '*.go' ':!*_test.go'; then
    echo "each segment's header holds its table's definition and one rename of the image commits a writer:" >&2
    echo "no catalog file, no second file to write and sync beside the image (DESIGN.md §10.1)" >&2
    exit 1
fi
echo "== a Load is the commit: its batch goes straight into the next image, renamed into place (internal/sqldb)"
if git grep -nE 'openLoose|loosePath|WriteSegmentFile|"\.loose"' -- '*.go' ':!*_test.go'; then
    echo "sqldb.DB.Load encodes its batch in memory and writes it, with a copy of every table it keeps, as" >&2
    echo "image.seg.tmp, synced and renamed over the image: no loose segment file, no file per segment," >&2
    echo "no second write of a table by a later Flush (DESIGN.md §6)" >&2
    exit 1
fi
echo "== a table never changes once it can be read: one batch Load writes tables (internal/sqldb)"
# A field selector is preceded by an identifier or a closing bracket.
if git grep -nE 'CreateTable|\.BulkLoad\(|func \(db \*DB\) release|db\.mu\b|[[:alnum:]_)]\.declared\b|[[:alnum:]_)]\.loose\b' -- '*.go' ':!*_test.go'; then
    echo "sqldb.DB.Load writes a batch of new tables and enters them in the catalog together; a table is built" >&2
    echo "complete by its constructor and never changes: no CreateTable, no BulkLoad, no in-place reopen or" >&2
    echo "release, no catalog lock, no declared flag, no per-table loose flag (DESIGN.md §6)" >&2
    exit 1
fi
echo "== a handle reads or writes, never both (ptldb.go, internal/core)"
if git grep -nE 'func \([[:alnum:]_]+ \*(DB|Store)\) (AddTargetSet|AddVersion|BuildPathTables|SetBuildWorkers)\(' -- ptldb.go 'internal/core/*.go' ':!*_test.go'; then
    echo "ptldb.DB and core.Store only read, and are complete when Open returns: the writers are the directory" >&2
    echo "functions ptldb.AddTargetSet / AddVersion / BuildPathTables and core.Writer (DESIGN.md §6)" >&2
    exit 1
fi
echo "== one way to observe a query: the trace hook is fixed at Open (outside tests and benchmark/)"
# ERE has no lookahead: the last alternative is SlowQueryLog not followed by "ger".
if git grep -nE 'SetTraceHook|QueryInfo|ExecInfo|FusedStats|observeRaw|SlowQueryThreshold|VCacheHits|CacheHits|CacheMisses|SlowQueryLog([^g]|$|g[^e]|g$|ge[^r]|ge$)' -- '*.go' ':!*_test.go' ':!benchmark'; then
    echo "core.Open takes the one trace hook and a Store never changes after it; a slow-query log is the hook" >&2
    echo "obs.NewSlowQueryLogger(w, d).Observe; a trace's path is Stmt.Fused(), and the executor and pool counters" >&2
    echo "are read from the registry (Registry().Exec, Snapshot().Pool): no setter, no second Config knob, no mirror" >&2
    exit 1
fi
echo "== ptldb-bench has one producer's knobs: no vector budget, no chart, no trace aggregator"
if git grep -nE 'ChartCols|renderChart|NewAggregator|TraceTotals|VCacheBytes' -- 'internal/bench/*.go' 'cmd/ptldb-bench/*.go' 'internal/obs/*.go' ':!*_test.go' ||
    git grep -nE 'obs-out|vcache-bytes' -- 'cmd/ptldb-bench'; then
    echo "every ptldb-bench database opens with no vector cache (bench.Workspace.Open), so each figure reads the" >&2
    echo "device it names; the report is tables and the claim table: no chart, no per-query trace file" >&2
    exit 1
fi
echo "== one owner per decision: sqldb writes segments, one dataset cache, obs.Code names the statements, one vertex order"
if git grep -nE 'Ordering:|cfg\.order\(|typeTags|benchDatasetFormat|v2vKindNames|setKindNames' -- '*.go' ':!*_test.go' ':!benchmark' ||
    git grep -nE 'storage\.(SegmentData|AppendSegment|OpenSegment|CreatePagedFile|NewPool|FindFrom)|sqltypes\.(EncodeSegRow|DecodeSegRow|IntRuns)' -- 'internal/bench/*.go' 'cmd/' ':!*_test.go'; then
    echo "only sqldb.DB.Load writes a segment (ablation-layout loads its two tables and reads them by key);" >&2
    echo "BenchmarkFusedExec takes ptldb-bench's dataset cache, the one with a format number; core and exec index" >&2
    echo "the statements by obs.Code, whose names are the only list; every label build uses the neighbor-degree" >&2
    echo "order, and ablation-ordering alone compares orders: no Config.Ordering, no Seed, no -order" >&2
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
# gets a test. Three have nothing to reach or no caller to have: isExpr is the
# AST's marker method (no statements), Loader.Import completes
# types.ImporterFrom, whose users call ImportFrom alone, and tenant.Release is
# a deprecated no-op (no statements) that benchmark/ still calls.
unreached=$(go tool cover -func=coverage.out |
    awk '$3 == "0.0%" && $1 !~ /^ptldb\/(cmd|examples)\// && $2 != "isExpr" &&
        !($1 ~ /analysis\/load\.go/ && $2 == "Import") &&
        !($1 ~ /internal\/tenant\/tenant\.go/ && $2 == "Release")')
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
echo "== fuzz smoke: a query body is byte for byte what encoding/json writes (internal/serve)"
go test -run '^$' -fuzz '^FuzzQueryBody$' -fuzztime 10s ./internal/serve
echo "== fuzz smoke: a row the row decoder accepts re-encodes to a fixed point, runs columns and their packed siblings included (internal/sqldb/sqltypes)"
go test -run '^$' -fuzz '^FuzzSegCodecRoundTrip$' -fuzztime 10s ./internal/sqldb/sqltypes
echo "== fuzz smoke: two segments back to back at a nonzero base: a rejected one leaves no page in the pool, accepted ones only their own (internal/sqldb/storage)"
go test -run '^$' -fuzz '^FuzzOpenSegment$' -fuzztime 10s -fuzzminimizetime 50x ./internal/sqldb/storage
echo "== fused and serving allocs/op ratchets (no race detector)"
go test -run 'TestFusedAllocsBudget' -count=1 .
go test -run 'TestQueryAllocsIndependentOfRows' -count=1 ./internal/serve
echo "== bench smoke (fused executor, 5 iterations)"
go test -run '^$' -bench 'BenchmarkFusedExec' -benchtime 5x .
echo "== bench smoke (parallel build, 1 iteration)"
go test -run '^$' -bench 'BenchmarkBuildParallel/workers=GOMAXPROCS' -benchtime 1x ./internal/ttl
echo "== the four examples run (the facade's write-then-query flows)"
for ex in quickstart poifinder geomarketing journeyplanner; do
    go run "./examples/$ex" > /dev/null
done
echo "== ptldb-bench ends its report with the claim table, every claim judged"
go run ./cmd/ptldb-bench -scale 0.01 -queries 10 -q -cache "$img/bench" -o "$img/report.md"
last=$(grep '^## ' "$img/report.md" | tail -n 1)
case "$last" in
"## claims "*) ;;
*)
    echo "the report's last section is '$last', not the claim table" >&2
    exit 1
    ;;
esac
if grep -n 'not run' "$img/report.md"; then
    echo "a claim of the full run reads 'not run': an experiment it reads is missing" >&2
    exit 1
fi
echo "== built directory holds exactly the image"
go run ./cmd/ptldb-build -city Austin -scale 0.01 -targets 0.1:4 -db "$img/db" > /dev/null
if [ "$(ls -A "$img/db" | tr '\n' ' ')" != "image.seg " ]; then
    echo "ptldb-build left something other than image.seg (a catalog, a .tmp file, a file per table):" >&2
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
echo "== an image whose tables stop declaring the label run order, the target-id bound, the EA floor or the target count does not open"
# The kernels search a label's runs unchecked, index an array by a condensed
# row's target ids and stop an EA sweep by the floor of its arrivals and, for a
# one-to-many, by the count of its targets, so an image that does not declare
# them — any built before the declaration existed — must be refused, not
# answered from. A definition is sealed in its segment's header, so the test
# builds each older image the way an older build wrote it: every table's rows
# loaded again under the definition without the key (and, for the image from
# before one knn_naive table per set, under the two names it had then).
go test -count=1 -run '^TestUndeclaredImageFailsClosed$' .
echo "== benchmark module (vet, tests, smoke run of all four workloads)"
go -C benchmark vet .
go -C benchmark test .
go -C benchmark run . -smoke > /dev/null
echo "== OK"
