package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ptldb/internal/core"
	"ptldb/internal/tenant"
	"ptldb/internal/timetable"
)

// span is one timed interval at a layer boundary the benchmark can reach
// from outside. Spans of one request share Req; Parent is the span that
// caused this one (0 for a root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Class  string `json:"class"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// counterSnap is a copy of the program's counters taken at a boundary.
type counterSnap struct {
	At     string             `json:"at"`
	AtNs   int64              `json:"at_ns"`
	Values map[string]float64 `json:"values"`
}

// Span names: the client round trip, the server's handler, the store call
// and the two table probes.
const (
	spanRequest = "loadgen.request"
	spanHandler = "serve.ServeHTTP"
	spanQuery   = "core.query"
	spanLookup  = "sqldb.lookup"
	spanScan    = "sqldb.scan"
	spanAcquire = "tenant.acquire"
)

// tracer keeps spans in memory until the run ends. A nil tracer, or one that
// is switched off, records nothing.
type tracer struct {
	on atomic.Bool
	// open is the handler span (and request id) a store call made now belongs
	// to. It is only meaningful while one request is in flight: the passes
	// set sequential, and under concurrent load store spans are roots.
	open       atomic.Int64
	sequential atomic.Bool
	t0         time.Time
	mu         sync.Mutex
	spans      []span
	counter    []counterSnap
}

// newTracer reserves room for a traced run's spans up front, so that
// recording one does not allocate inside somebody's measurement.
func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<18)} }

// next is the id the next span will get; two calls bracket a pass.
func (t *tracer) next() int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int32(len(t.spans) + 1)
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// begin opens a span and returns its id, 0 when tracing is off.
func (t *tracer) begin(name string, parent, req int32, c class) int32 {
	if !t.enabled() {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Class: classNames[c], Start: now})
	t.mu.Unlock()
	return id
}

// mark names the request the next store call belongs to when no handler span
// does: the direct passes and the embedded loop, which run one call at a time.
func (t *tracer) mark(parent, req int32) {
	if t.enabled() {
		t.open.Store(packOpen(parent, req))
	}
}

func (t *tracer) end(id int32) {
	if id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

func (t *tracer) snapshot(at string, values map[string]float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counter = append(t.counter, counterSnap{At: at, AtNs: int64(time.Since(t.t0)), Values: values})
	t.mu.Unlock()
}

// packOpen and unpackOpen carry a handler span and its request id in the
// one atomic word a store call reads.
func packOpen(id, req int32) int64 { return int64(id)<<32 | int64(uint32(req)) }

func unpackOpen(v int64) (id, req int32) { return int32(v >> 32), int32(uint32(v)) }

// durations returns, for every finished span of the given name and class
// that satisfies keep, its length in nanoseconds — minus the time its
// children cover when self is set.
func (t *tracer) durations(name string, c class, self bool, keep func(span) bool) []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var children map[int32]int64
	if self {
		children = make(map[int32]int64)
		for _, s := range t.spans {
			if s.Parent != 0 && s.End > 0 {
				children[s.Parent] += s.End - s.Start
			}
		}
	}
	var out []int64
	for _, s := range t.spans {
		if s.Name != name || s.Class != classNames[c] || s.End == 0 || (keep != nil && !keep(s)) {
			continue
		}
		out = append(out, s.End-s.Start-children[s.ID])
	}
	return out
}

func isRoot(s span) bool { return s.Parent == 0 }

// write stores the spans and counter snapshots as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	blob, err := json.Marshal(struct {
		Spans    []span        `json:"spans"`
		Counters []counterSnap `json:"counters"`
	}{t.spans, t.counter})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// spanHeader carries "<parent span> <request id> <class>" from the load
// generator to the handler wrapper.
const spanHeader = "X-Bench-Span"

// handler wraps the server so that every request leaves a handler span under
// the client span named in its header.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := r.Header.Get(spanHeader)
		if h == "" || !t.enabled() {
			next.ServeHTTP(w, r)
			return
		}
		var parent, req int32
		var c class
		if _, err := fmt.Sscan(h, &parent, &req, &c); err != nil {
			next.ServeHTTP(w, r)
			return
		}
		id := t.begin(spanHandler, parent, req, c)
		if t.sequential.Load() {
			t.open.Store(packOpen(id, req))
		}
		next.ServeHTTP(w, r)
		t.end(id)
	})
}

// tracedStore times every query a database answers. It stands where the
// *ptldb.DB would: as the server's store, a tenant's database or the
// embedded caller's handle.
type tracedStore struct {
	tenant.DB
	t *tracer
}

func (s tracedStore) begin(c class) int32 {
	parent, req := unpackOpen(s.t.open.Load())
	return s.t.begin(spanQuery, parent, req, c)
}

func (s tracedStore) EarliestArrival(a, b timetable.StopID, t timetable.Time) (timetable.Time, bool, error) {
	defer s.t.end(s.begin(cV2V))
	return s.DB.EarliestArrival(a, b, t)
}

func (s tracedStore) LatestDeparture(a, b timetable.StopID, t timetable.Time) (timetable.Time, bool, error) {
	defer s.t.end(s.begin(cV2V))
	return s.DB.LatestDeparture(a, b, t)
}

func (s tracedStore) ShortestDuration(a, b timetable.StopID, t, tEnd timetable.Time) (timetable.Time, bool, error) {
	defer s.t.end(s.begin(cV2V))
	return s.DB.ShortestDuration(a, b, t, tEnd)
}

func (s tracedStore) EAKNN(set string, q timetable.StopID, t timetable.Time, k int) ([]core.Result, error) {
	defer s.t.end(s.begin(cKNN))
	return s.DB.EAKNN(set, q, t, k)
}

func (s tracedStore) LDKNN(set string, q timetable.StopID, t timetable.Time, k int) ([]core.Result, error) {
	defer s.t.end(s.begin(cKNN))
	return s.DB.LDKNN(set, q, t, k)
}

func (s tracedStore) EAOTM(set string, q timetable.StopID, t timetable.Time) ([]core.Result, error) {
	defer s.t.end(s.begin(cOTM))
	return s.DB.EAOTM(set, q, t)
}

func (s tracedStore) LDOTM(set string, q timetable.StopID, t timetable.Time) ([]core.Result, error) {
	defer s.t.end(s.begin(cOTM))
	return s.DB.LDOTM(set, q, t)
}
