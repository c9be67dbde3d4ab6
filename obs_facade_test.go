package ptldb

import (
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"ptldb/internal/obs"
)

// TestFacadeObservability wires the public observability surface end to end:
// Config.TraceHook (a collecting hook and the slow-query logger, the one
// ptldb-query and ptldb-serve install for -slow), DB.Snapshot and
// DB.ExplainPrepared on a real database.
func TestFacadeObservability(t *testing.T) {
	tt, err := GenerateCity("Salt Lake City", 0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu     sync.Mutex
		traces []Trace
		slow   strings.Builder
	)
	// A one-nanosecond threshold is below every wall time, so each query
	// also produces one slow-log line.
	slowLog := obs.NewSlowQueryLogger(&slow, time.Nanosecond)
	db, err := Create(t.TempDir(), tt, Config{
		Device: "ram",
		TraceHook: func(tr Trace) {
			mu.Lock()
			traces = append(traces, tr)
			mu.Unlock()
			slowLog.Observe(tr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const n = 5
	for i := 0; i < n; i++ {
		if _, _, err := db.EarliestArrival(StopID(i), StopID(i+1), tt.MinTime()); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	got := len(traces)
	mu.Unlock()
	if got != n {
		t.Fatalf("hook got %d traces, want %d", got, n)
	}
	for _, tr := range traces {
		if tr.Code != "v2v-ea" || !tr.Fused {
			t.Errorf("trace = %+v, want a fused v2v-ea", tr)
		}
	}
	// Every label table was decoded at Open, so no query reads a page.
	line := regexp.MustCompile(`^slow query: code=v2v-ea path=fused wall=[0-9.]+[a-zµ]+ rows=1 pages=0 rand_reads=0 seq_reads=0$`)
	lines := strings.Split(strings.TrimSuffix(slow.String(), "\n"), "\n")
	if len(lines) != n {
		t.Errorf("slow log has %d lines, want %d:\n%s", len(lines), n, slow.String())
	}
	for _, l := range lines {
		if !line.MatchString(l) {
			t.Errorf("slow log line %q, want %v", l, line)
		}
	}

	snap := db.Snapshot()
	if snap.Query["v2v-ea"].Count != n {
		t.Errorf("snapshot v2v-ea count = %d, want %d", snap.Query["v2v-ea"].Count, n)
	}
	if snap.Exec.FusedRuns < n {
		t.Errorf("snapshot fused runs = %d, want >= %d", snap.Exec.FusedRuns, n)
	}
	// Only a table outside the vector cache is read through the buffer pool.
	// Its pages are resident from the open pass until the caches are dropped.
	if err := db.DropCaches(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, ok, err := db.Stop(0); err != nil || !ok {
			t.Fatalf("Stop(0) = %v, %v", ok, err)
		}
	}
	if pool := db.Snapshot().Pool; pool.Hits == 0 || pool.Misses == 0 {
		t.Errorf("snapshot pool = %+v, want the stop lookups' miss and hit", pool)
	}
	if snap.VCache == nil {
		t.Error("snapshot has no vcache block on a default-config handle")
	} else {
		if snap.VCache.Hits == 0 || snap.VCache.Materializations == 0 {
			t.Errorf("vcache snapshot = %+v, want hits and materializations > 0", snap.VCache)
		}
		if snap.VCache.ResidentBytes <= 0 {
			t.Errorf("vcache resident bytes = %d, want > 0", snap.VCache.ResidentBytes)
		}
	}

	plan, err := db.ExplainPrepared("v2v-ea")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(plan, "FusedPlan v2v-ea") {
		t.Errorf("plan = %q", plan)
	}
	if names := db.ExplainNames(); len(names) != 4 {
		t.Errorf("names = %v (no target sets registered, want the four v2v kinds)", names)
	}
}
