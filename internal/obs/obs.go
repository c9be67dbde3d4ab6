// Package obs is PTLDB's zero-dependency observability layer: atomic
// counters and fixed-bucket latency histograms for the buffer pool, the
// executor and the paper's query Codes, plus per-query trace records, a
// slow-query log writer and a trace aggregator.
//
// Everything on a query hot path is allocation-free: counters are atomic
// adds, histograms index a fixed bucket array, and traces are plain value
// structs that are only materialized when a hook is installed. A Registry
// (and each metrics struct inside it) may be written from many goroutines
// concurrently; snapshots are taken with atomic loads and are consistent
// per counter, not across counters.
package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter safe for concurrent use.
// The zero value is ready; a bare atomic.Uint64 would do, but the named
// type keeps metric fields self-describing and gives snapshots one place
// to load from.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
//
// hotpath — allocheck root: counter bumps run inside every query.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a level that can move both ways (resident bytes, open handles),
// safe for concurrent use. The zero value is ready.
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by n (negative to decrease).
//
// hotpath — allocheck root: gauge moves run inside every query.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Code identifies one query shape of the paper: Codes 1-4 in their EA/LD/SD
// variants, plus the journey witness of Code 1 and Raw for ad-hoc SQL issued
// through the store.
type Code int

// The query codes, in the order the paper introduces them.
const (
	CodeV2VEA        Code = iota // Code 1, earliest arrival
	CodeV2VLD                    // Code 1, latest departure
	CodeV2VSD                    // Code 1, shortest duration
	CodeKNNNaiveEA               // Code 2, EA
	CodeKNNNaiveLD               // Code 2, LD analogue
	CodeKNNEA                    // Code 3, kNN
	CodeKNNLD                    // Code 4, kNN
	CodeOTMEA                    // Code 3, one-to-many
	CodeOTMLD                    // Code 4, one-to-many
	CodeV2VEAWitness             // Code 1, the earliest arrival's hub and tuple pair
	CodeRaw                      // ad-hoc SQL
	NumCodes
)

var codeNames = [NumCodes]string{
	"v2v-ea", "v2v-ld", "v2v-sd",
	"knn-naive-ea", "knn-naive-ld",
	"knn-ea", "knn-ld", "otm-ea", "otm-ld",
	"v2v-ea-witness",
	"raw",
}

// String returns the code's stable name ("v2v-ea", "knn-naive-ld", ...), or
// a fixed sentinel for out-of-range values.
//
// hotpath — allocheck root: the trace path renders the code once per query
// when a hook is installed, so even the out-of-range branch must not build a
// string.
func (c Code) String() string {
	if c < 0 || c >= NumCodes {
		return "code-out-of-range"
	}
	return codeNames[c]
}

// histBounds are the histogram's upper bucket bounds: latency decades from
// 1µs to 10s, with a final overflow bucket. Fixed bounds keep Observe
// allocation-free and make snapshots comparable across runs.
var histBounds = [...]time.Duration{
	time.Microsecond,
	10 * time.Microsecond,
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
	10 * time.Second,
}

// numHistBuckets counts the bounded buckets plus the overflow bucket.
const numHistBuckets = len(histBounds) + 1

// Histogram is a fixed-bucket latency histogram safe for concurrent Observe.
type Histogram struct {
	buckets [numHistBuckets]Counter
	count   Counter
	sumNs   Counter
}

// Observe records one latency sample.
//
// hotpath — allocheck root: per-query latency recording.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := 0
	for i < len(histBounds) && d > histBounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(uint64(d))
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	MeanUs  float64  `json:"mean_us"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Bucket is one histogram bucket: samples with latency <= Le ("+inf" for
// the overflow bucket). Empty buckets are omitted from snapshots.
type Bucket struct {
	Le    string `json:"le"`
	Count uint64 `json:"count"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load()}
	if s.Count > 0 {
		s.MeanUs = float64(h.sumNs.Load()) / float64(s.Count) / 1e3
	}
	for i := 0; i < numHistBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		le := "+inf"
		if i < len(histBounds) {
			le = histBounds[i].String()
		}
		s.Buckets = append(s.Buckets, Bucket{Le: le, Count: n})
	}
	return s
}

// PoolMetrics are the buffer pool's counters. Every Get counts one hit or
// one miss, and every miss is one device read through the pool, failed or
// not; evictions count frames a miss displaced for capacity (DropCaches,
// being a bulk reset, is not an eviction). RandReads and SeqReads split
// every device page read of the handle's files by how the device model
// charged it — a seek, or a transfer following the previously read page of
// the same file — so RandReads is the exact seek count. Their sum is at least
// Misses: segment opens, which also keep what the vector cache decodes, read
// past the pool.
type PoolMetrics struct {
	Hits      Counter
	Misses    Counter
	Evictions Counter
	RandReads Counter
	SeqReads  Counter
}

// PoolSnapshot is a point-in-time copy of PoolMetrics.
type PoolSnapshot struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	RandReads uint64 `json:"rand_reads"`
	SeqReads  uint64 `json:"seq_reads"`
}

// Snapshot copies the pool counters.
func (m *PoolMetrics) Snapshot() PoolSnapshot {
	return PoolSnapshot{
		Hits:      m.Hits.Load(),
		Misses:    m.Misses.Load(),
		Evictions: m.Evictions.Load(),
		RandReads: m.RandReads.Load(),
		SeqReads:  m.SeqReads.Load(),
	}
}

// ExecMetrics are the executor's counters: how statements were dispatched
// (fused vs. general), how many table rows the storage layer surfaced, and
// how many label tuples the operators merged (fused fold steps, or rows
// produced by UNNEST expansion on the general path).
type ExecMetrics struct {
	FusedRuns Counter
	// FusedBailouts is never incremented: a fused plan answers or errors. It
	// and its snapshot field leave with the next [benchmark] PR
	// (benchmark/layers.go compiles against them).
	FusedBailouts Counter
	GeneralRuns   Counter
	RowsScanned   Counter
	TuplesMerged  Counter
}

// ExecSnapshot is a point-in-time copy of ExecMetrics.
type ExecSnapshot struct {
	FusedRuns     uint64 `json:"fused_runs"`
	FusedBailouts uint64 `json:"fused_bailouts"`
	GeneralRuns   uint64 `json:"general_runs"`
	RowsScanned   uint64 `json:"rows_scanned"`
	TuplesMerged  uint64 `json:"tuples_merged"`
}

// Snapshot copies the executor counters.
func (m *ExecMetrics) Snapshot() ExecSnapshot {
	return ExecSnapshot{
		FusedRuns:     m.FusedRuns.Load(),
		FusedBailouts: m.FusedBailouts.Load(),
		GeneralRuns:   m.GeneralRuns.Load(),
		RowsScanned:   m.RowsScanned.Load(),
		TuplesMerged:  m.TuplesMerged.Load(),
	}
}

// SegmentMetrics are the columnar label segment counters: rows served from
// a segment (hits), columns decoded out of segment payloads and compressed
// payload bytes read. Device page reads for segment files flow through the
// buffer pool and are counted in PoolMetrics (and hence in Trace.PagesRead)
// like any other page.
type SegmentMetrics struct {
	Hits           Counter
	ColumnsDecoded Counter
	BytesRead      Counter
}

// SegmentSnapshot is a point-in-time copy of SegmentMetrics.
type SegmentSnapshot struct {
	Hits           uint64 `json:"hits"`
	ColumnsDecoded uint64 `json:"columns_decoded"`
	BytesRead      uint64 `json:"bytes_read"`
}

// Snapshot copies the segment counters.
func (m *SegmentMetrics) Snapshot() SegmentSnapshot {
	return SegmentSnapshot{
		Hits:           m.Hits.Load(),
		ColumnsDecoded: m.ColumnsDecoded.Load(),
		BytesRead:      m.BytesRead.Load(),
	}
}

// VCacheMetrics are the resident vector cache's counters: lookups served
// from decoded column vectors (hits), tables decoded (materializations:
// every admitted table, once, at open), tables declined at registration
// because their vectors do not fit what the tables admitted before them left
// of the budget (their lookups bypass the cache and count as neither hit nor
// miss), the bytes of the admitted tables' shares (resident bytes), and the
// latency of each decode.
type VCacheMetrics struct {
	Hits Counter
	// Misses is never incremented: an admitted table is resident before a
	// lookup can reach it. It and its snapshot field stay while the benchmark
	// harness reads them (vcache.hit_ratio, which reads 1 wherever a table
	// is admitted).
	Misses Counter
	// Evictions is never incremented: an admitted table keeps its share until
	// it is dropped. It and its snapshot field leave with the next
	// [benchmark] PR (benchmark/layers.go and the serve goldens read them).
	Evictions        Counter
	Materializations Counter
	Declined         Counter
	ResidentBytes    Gauge
	Materialize      Histogram
}

// VCacheSnapshot is a point-in-time copy of VCacheMetrics.
type VCacheSnapshot struct {
	Hits             uint64            `json:"hits"`
	Misses           uint64            `json:"misses"`
	Evictions        uint64            `json:"evictions"`
	Materializations uint64            `json:"materializations"`
	Declined         uint64            `json:"declined"`
	ResidentBytes    int64             `json:"resident_bytes"`
	Materialize      HistogramSnapshot `json:"materialize"`
}

// Snapshot copies the vector cache counters.
func (m *VCacheMetrics) Snapshot() VCacheSnapshot {
	return VCacheSnapshot{
		Hits:             m.Hits.Load(),
		Misses:           m.Misses.Load(),
		Evictions:        m.Evictions.Load(),
		Materializations: m.Materializations.Load(),
		Declined:         m.Declined.Load(),
		ResidentBytes:    m.ResidentBytes.Load(),
		Materialize:      m.Materialize.Snapshot(),
	}
}

// ServeMetrics are the network serving layer's counters (internal/serve).
// Requests counts requests that entered the request pipeline (parse failures
// are rejected before admission and counted as BadRequests only); Executions
// counts store executions launched, one per admitted query; Coalesced is
// always 0, since no two requests share an execution, and stays only because
// the benchmark harness reads it; Rejected counts 503s at the admission cap;
// Timeouts counts requests whose deadline expired while their execution was
// still running; BadRequests and Errors count 400 and 500 responses.
// InFlight is the number of executions currently holding an admission slot.
// Latency is the whole-request wall time of served requests excluding
// admission rejections: a 503 returns in microseconds by design, and folding
// those into the same histogram would drag the percentiles down exactly when
// the server is overloaded. Rejected requests record into RejectedLatency
// instead, so both populations stay visible.
type ServeMetrics struct {
	Requests        Counter
	Executions      Counter
	Coalesced       Counter
	Rejected        Counter
	Timeouts        Counter
	BadRequests     Counter
	Errors          Counter
	InFlight        Gauge
	Latency         Histogram
	RejectedLatency Histogram
}

// ServeSnapshot is a point-in-time copy of ServeMetrics.
type ServeSnapshot struct {
	Requests        uint64            `json:"requests"`
	Executions      uint64            `json:"executions"`
	Coalesced       uint64            `json:"coalesced"`
	Rejected        uint64            `json:"rejected"`
	Timeouts        uint64            `json:"timeouts"`
	BadRequests     uint64            `json:"bad_requests"`
	Errors          uint64            `json:"errors"`
	InFlight        int64             `json:"in_flight"`
	Latency         HistogramSnapshot `json:"latency"`
	RejectedLatency HistogramSnapshot `json:"rejected_latency"`
}

// Snapshot copies the serving counters.
func (m *ServeMetrics) Snapshot() ServeSnapshot {
	return ServeSnapshot{
		Requests:        m.Requests.Load(),
		Executions:      m.Executions.Load(),
		Coalesced:       m.Coalesced.Load(),
		Rejected:        m.Rejected.Load(),
		Timeouts:        m.Timeouts.Load(),
		BadRequests:     m.BadRequests.Load(),
		Errors:          m.Errors.Load(),
		InFlight:        m.InFlight.Load(),
		Latency:         m.Latency.Snapshot(),
		RejectedLatency: m.RejectedLatency.Snapshot(),
	}
}

// TenantMetrics are one city's counters in a multi-tenant router
// (internal/tenant): query requests routed to the tenant, their latency
// (admission rejections excluded, like ServeMetrics.Latency), and the tenant
// database's open/close events under lazy open and LRU close. One
// TenantMetrics lives for the router's whole lifetime even while its tenant
// database is closed, so the counters survive open/close cycles.
type TenantMetrics struct {
	Requests Counter
	Opens    Counter
	Closes   Counter
	Latency  Histogram
}

// TenantSnapshot is a point-in-time copy of TenantMetrics plus the tenant's
// lifecycle state: whether its database is currently open and, when open,
// the resident bytes held by its vector-cache budget share.
type TenantSnapshot struct {
	Requests      uint64            `json:"requests"`
	Opens         uint64            `json:"opens"`
	Closes        uint64            `json:"closes"`
	Open          bool              `json:"open"`
	ResidentBytes int64             `json:"resident_bytes"`
	Latency       HistogramSnapshot `json:"latency"`
}

// Snapshot copies the tenant counters. open and residentBytes come from the
// router, which knows the lifecycle state the metrics struct outlives.
func (m *TenantMetrics) Snapshot(open bool, residentBytes int64) TenantSnapshot {
	return TenantSnapshot{
		Requests:      m.Requests.Load(),
		Opens:         m.Opens.Load(),
		Closes:        m.Closes.Load(),
		Open:          open,
		ResidentBytes: residentBytes,
		Latency:       m.Latency.Snapshot(),
	}
}

// QueryMetrics are one query Code's counters.
type QueryMetrics struct {
	Count   Counter
	Latency Histogram
}

// QuerySnapshot is a point-in-time copy of QueryMetrics.
type QuerySnapshot struct {
	Count   uint64            `json:"count"`
	Latency HistogramSnapshot `json:"latency"`
}

// Registry aggregates every metrics family of one database handle. Pool
// points into the buffer pool's own counters (the pool predates the
// registry in the open sequence); VCache points into the vector cache's
// counters and is nil when the cache is disabled; Exec and Query live
// inline.
type Registry struct {
	Pool    *PoolMetrics
	VCache  *VCacheMetrics
	Exec    ExecMetrics
	Segment SegmentMetrics
	Query   [NumCodes]QueryMetrics
}

// Snapshot is a JSON-marshalable copy of a Registry, the payload of
// DB.Snapshot and ptldb-bench -obs-out. VCache is nil when the handle runs
// without a vector cache.
type Snapshot struct {
	Pool    PoolSnapshot             `json:"pool"`
	VCache  *VCacheSnapshot          `json:"vcache,omitempty"`
	Exec    ExecSnapshot             `json:"exec"`
	Segment SegmentSnapshot          `json:"segment"`
	Query   map[string]QuerySnapshot `json:"query"`
	// Serve is filled by ptldb-serve's /obs endpoint (the store itself has
	// no serving counters); nil everywhere else.
	Serve *ServeSnapshot `json:"serve,omitempty"`
	// Tenant is filled by the multi-tenant /t/{city}/obs endpoint with the
	// city's routing counters; nil everywhere else.
	Tenant *TenantSnapshot `json:"tenant,omitempty"`
}

// Snapshot copies the registry. Codes that never ran are omitted from the
// query map.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Exec: r.Exec.Snapshot(), Segment: r.Segment.Snapshot(), Query: map[string]QuerySnapshot{}}
	if r.Pool != nil {
		s.Pool = r.Pool.Snapshot()
	}
	if r.VCache != nil {
		vc := r.VCache.Snapshot()
		s.VCache = &vc
	}
	for c := Code(0); c < NumCodes; c++ {
		q := &r.Query[c]
		if n := q.Count.Load(); n > 0 {
			s.Query[c.String()] = QuerySnapshot{Count: n, Latency: q.Latency.Snapshot()}
		}
	}
	return s
}

// Trace is one executed query's record, delivered to Config.TraceHook.
// Building and delivering a Trace costs a few loads per query and happens
// only when a hook is installed.
type Trace struct {
	// Code names the query shape ("v2v-ea", "knn-ld", "raw", ...).
	Code string `json:"code"`
	// Fused reports whether the fused executor answered the query.
	Fused bool `json:"fused"`
	// Rows is the result-row count.
	Rows int `json:"rows"`
	// Wall is the query's wall-clock time.
	Wall time.Duration `json:"wall_ns"`
	// PagesRead counts buffer-pool misses (device page reads) charged while
	// the query ran. Under concurrent queries the attribution is
	// approximate: the delta includes pages read by overlapping queries.
	PagesRead uint64 `json:"pages_read"`
	// RandReads and SeqReads split the device page reads charged while the
	// query ran into seeks and sequential transfers (same approximate
	// attribution as PagesRead, plus any read past the pool).
	RandReads uint64 `json:"rand_reads"`
	SeqReads  uint64 `json:"seq_reads"`
	// VCacheHits counts resident-vector-cache hits while the query ran
	// (same approximate attribution as PagesRead). Zero when the cache is
	// disabled.
	VCacheHits uint64 `json:"vcache_hits,omitempty"`
}

// SlowQueryLogger writes one line per trace whose wall time reaches the
// threshold. Safe for concurrent Observe.
type SlowQueryLogger struct {
	mu        sync.Mutex
	w         io.Writer
	threshold time.Duration
}

// NewSlowQueryLogger returns a logger writing to w. A zero threshold logs
// every query.
func NewSlowQueryLogger(w io.Writer, threshold time.Duration) *SlowQueryLogger {
	return &SlowQueryLogger{w: w, threshold: threshold}
}

// Observe logs tr when it is slow enough.
func (l *SlowQueryLogger) Observe(tr Trace) {
	if tr.Wall < l.threshold {
		return
	}
	path := "general"
	if tr.Fused {
		path = "fused"
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// Best-effort log sink: a failed slow-query line must not fail the query.
	_, _ = fmt.Fprintf(l.w, "slow query: code=%s path=%s wall=%v rows=%d pages=%d rand_reads=%d seq_reads=%d\n",
		tr.Code, path, tr.Wall, tr.Rows, tr.PagesRead, tr.RandReads, tr.SeqReads)
}

// Aggregator folds traces into per-code totals; ptldb-bench -obs-out uses
// one as its TraceHook so traces survive the benchmark's internal
// open/close cycles. Safe for concurrent Observe.
type Aggregator struct {
	mu     sync.Mutex
	byCode map[string]*TraceTotals
}

// TraceTotals are one code's aggregated trace records.
type TraceTotals struct {
	Count      uint64        `json:"count"`
	Fused      uint64        `json:"fused"`
	Rows       uint64        `json:"rows"`
	PagesRead  uint64        `json:"pages_read"`
	RandReads  uint64        `json:"rand_reads"`
	SeqReads   uint64        `json:"seq_reads"`
	VCacheHits uint64        `json:"vcache_hits,omitempty"`
	WallTotal  time.Duration `json:"wall_total_ns"`
	WallMax    time.Duration `json:"wall_max_ns"`
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{byCode: map[string]*TraceTotals{}}
}

// Observe folds one trace.
func (a *Aggregator) Observe(tr Trace) {
	a.mu.Lock()
	defer a.mu.Unlock()
	t := a.byCode[tr.Code]
	if t == nil {
		t = &TraceTotals{}
		a.byCode[tr.Code] = t
	}
	t.Count++
	if tr.Fused {
		t.Fused++
	}
	t.Rows += uint64(tr.Rows)
	t.PagesRead += tr.PagesRead
	t.RandReads += tr.RandReads
	t.SeqReads += tr.SeqReads
	t.VCacheHits += tr.VCacheHits
	t.WallTotal += tr.Wall
	if tr.Wall > t.WallMax {
		t.WallMax = tr.Wall
	}
}

// Totals returns a copy of the aggregate, keyed by code name.
func (a *Aggregator) Totals() map[string]TraceTotals {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]TraceTotals, len(a.byCode))
	for k, v := range a.byCode {
		out[k] = *v
	}
	return out
}
