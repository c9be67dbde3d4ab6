package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterConcurrent hammers one counter from many goroutines; run under
// -race this also proves Add/Load are data-race-free.
func TestCounterConcurrent(t *testing.T) {
	const goroutines, perG = 8, 10000
	var c Counter
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

// TestRegistryConcurrent drives every registry family from concurrent
// goroutines while snapshots are taken, the shape -race must accept.
func TestRegistryConcurrent(t *testing.T) {
	var reg Registry
	var pool PoolMetrics
	reg.Pool = &pool
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 5000; i++ {
			pool.Hits.Add(1)
			reg.Exec.RowsScanned.Add(2)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 5000; i++ {
			q := &reg.Query[CodeV2VEA]
			q.Count.Add(1)
			q.Latency.Observe(time.Duration(i) * time.Microsecond)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = reg.Snapshot()
		}
	}()
	wg.Wait()
	s := reg.Snapshot()
	if s.Pool.Hits != 5000 || s.Exec.RowsScanned != 10000 {
		t.Fatalf("snapshot = %+v", s)
	}
	q, ok := s.Query["v2v-ea"]
	if !ok || q.Count != 5000 || q.Latency.Count != 5000 {
		t.Fatalf("v2v-ea snapshot = %+v (present %v)", q, ok)
	}
	if len(s.Query) != 1 {
		t.Fatalf("codes that never ran must be omitted, got %v", s.Query)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second) // clamped to 0 → first bucket
	h.Observe(500 * time.Nanosecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(time.Minute) // overflow
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	got := map[string]uint64{}
	for _, b := range s.Buckets {
		got[b.Le] = b.Count
	}
	want := map[string]uint64{"1µs": 2, "10ms": 1, "+inf": 1}
	for le, n := range want {
		if got[le] != n {
			t.Errorf("bucket %s = %d, want %d (all: %v)", le, got[le], n, got)
		}
	}
	if len(got) != len(want) {
		t.Errorf("empty buckets must be omitted: %v", got)
	}
	// Mean: (0 + 500ns + 5ms + 60s) / 4 ≈ 15.00125s ≈ 1.500125e7 µs.
	if s.MeanUs < 1.4e7 || s.MeanUs > 1.6e7 {
		t.Errorf("mean_us = %v", s.MeanUs)
	}
}

func TestCodeNames(t *testing.T) {
	seen := map[string]bool{}
	for c := Code(0); c < NumCodes; c++ {
		name := c.String()
		if name == "" || strings.HasPrefix(name, "code-") {
			t.Errorf("code %d has no name", c)
		}
		if seen[name] {
			t.Errorf("duplicate code name %q", name)
		}
		seen[name] = true
	}
	if Code(99).String() != "code-out-of-range" {
		t.Errorf("out-of-range code name = %q", Code(99).String())
	}
}

// TestTenantMetricsSnapshot checks that the lifecycle state passed by the
// router lands in the snapshot next to the counters, and that the counters
// survive the open/close transitions the metrics struct outlives.
func TestTenantMetricsSnapshot(t *testing.T) {
	var m TenantMetrics
	m.Requests.Add(3)
	m.Opens.Add(2)
	m.Closes.Add(1)
	m.Latency.Observe(time.Millisecond)
	s := m.Snapshot(true, 4096)
	if s.Requests != 3 || s.Opens != 2 || s.Closes != 1 {
		t.Fatalf("snapshot counters = %+v", s)
	}
	if !s.Open || s.ResidentBytes != 4096 {
		t.Errorf("lifecycle state = open %v resident %d, want true 4096", s.Open, s.ResidentBytes)
	}
	if s.Latency.Count != 1 {
		t.Errorf("latency count = %d, want 1", s.Latency.Count)
	}
	// Closing the tenant changes only the lifecycle view, never the counters.
	s = m.Snapshot(false, 0)
	if s.Open || s.ResidentBytes != 0 || s.Requests != 3 {
		t.Errorf("post-close snapshot = %+v", s)
	}
}

func TestSlowQueryLogger(t *testing.T) {
	var buf strings.Builder
	l := NewSlowQueryLogger(&buf, 10*time.Millisecond)
	l.Observe(Trace{Code: "v2v-ea", Fused: true, Wall: time.Millisecond})
	if buf.Len() != 0 {
		t.Fatalf("fast query logged: %q", buf.String())
	}
	l.Observe(Trace{Code: "knn-ea", Fused: true, Wall: 25 * time.Millisecond, Rows: 4, PagesRead: 7, RandReads: 2, SeqReads: 5})
	line := buf.String()
	for _, frag := range []string{"code=knn-ea", "path=fused", "wall=25ms", "rows=4", "pages=7", "rand_reads=2", "seq_reads=5"} {
		if !strings.Contains(line, frag) {
			t.Errorf("slow line %q lacks %q", line, frag)
		}
	}
	buf.Reset()
	l.Observe(Trace{Code: "raw", Wall: time.Second})
	if !strings.Contains(buf.String(), "path=general") {
		t.Errorf("general path not labelled: %q", buf.String())
	}
}

func TestAggregator(t *testing.T) {
	a := NewAggregator()
	var wg sync.WaitGroup
	wg.Add(4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				a.Observe(Trace{Code: "v2v-ea", Fused: true, Rows: 1,
					Wall: time.Duration(g+1) * time.Millisecond, PagesRead: 2, RandReads: 1, SeqReads: 1})
			}
		}(g)
	}
	wg.Wait()
	a.Observe(Trace{Code: "raw", Wall: time.Second})
	tot := a.Totals()
	ea := tot["v2v-ea"]
	if ea.Count != 400 || ea.Fused != 400 || ea.Rows != 400 || ea.PagesRead != 800 ||
		ea.RandReads != 400 || ea.SeqReads != 400 {
		t.Fatalf("v2v-ea totals = %+v", ea)
	}
	if ea.WallMax != 4*time.Millisecond {
		t.Errorf("wall max = %v, want 4ms", ea.WallMax)
	}
	if tot["raw"].Count != 1 || tot["raw"].Fused != 0 {
		t.Errorf("raw totals = %+v", tot["raw"])
	}
	if len(tot) != 2 {
		t.Errorf("totals cover %d codes, want 2 (raw, v2v-ea)", len(tot))
	}
}
