package main

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"time"

	"ptldb"
	"ptldb/internal/obs"
	"ptldb/internal/sqldb/exec"
	"ptldb/internal/sqldb/sqltypes"
)

type hookFunc = func(ptldb.Trace)

// hookWalls collects the wall time Config.TraceHook reports per class: the
// program's own view of the span the benchmark puts around each call.
type hookWalls struct {
	on   bool
	wall [numClasses][]int64
}

func (h *hookWalls) observe(t ptldb.Trace) {
	if !h.on {
		return
	}
	c := cV2V
	switch {
	case strings.HasPrefix(t.Code, "knn"):
		c = cKNN
	case strings.HasPrefix(t.Code, "otm"):
		c = cOTM
	}
	h.wall[c] = append(h.wall[c], int64(t.Wall))
}

// The counters the layers keep and the benchmark can read from outside.
const (
	cntRows = iota
	cntMerged
	cntFused
	cntBailouts
	cntGeneral
	cntPoolHits
	cntPoolMisses
	cntSegBytes
	cntVCHits
	cntVCMisses
	cntStmtHits
	cntStmtMisses
	cntSimNs
	numCounters
)

var counterNames = [numCounters]string{
	"exec.rows_scanned", "exec.tuples_merged", "exec.fused_runs", "exec.fused_bailouts", "exec.general_runs",
	"pool.hits", "pool.misses", "segment.bytes_read", "vcache.hits", "vcache.misses",
	"stmt.hits", "stmt.misses", "clock.sim_ns",
}

// counters is one reading of them, summed over the workload's open databases.
type counters [numCounters]uint64

func readCounters(dbs ...*ptldb.DB) counters {
	var c counters
	for _, db := range dbs {
		sdb := db.Store().DB
		reg := sdb.Registry()
		c[cntRows] += reg.Exec.RowsScanned.Load()
		c[cntMerged] += reg.Exec.TuplesMerged.Load()
		c[cntFused] += reg.Exec.FusedRuns.Load()
		c[cntBailouts] += reg.Exec.FusedBailouts.Load()
		c[cntGeneral] += reg.Exec.GeneralRuns.Load()
		c[cntPoolHits] += reg.Pool.Hits.Load()
		c[cntPoolMisses] += reg.Pool.Misses.Load()
		c[cntSegBytes] += reg.Segment.BytesRead.Load()
		if reg.VCache != nil {
			c[cntVCHits] += reg.VCache.Hits.Load()
			c[cntVCMisses] += reg.VCache.Misses.Load()
		}
		h, m := sdb.StmtCacheStats()
		c[cntStmtHits], c[cntStmtMisses] = c[cntStmtHits]+h, c[cntStmtMisses]+m
		c[cntSimNs] += uint64(sdb.Clock().Elapsed())
	}
	return c
}

func (c counters) minus(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c *counters) add(o counters) {
	for i := range c {
		c[i] += o[i]
	}
}

func (c counters) sim() time.Duration { return time.Duration(c[cntSimNs]) }

func (c counters) values() map[string]float64 {
	v := make(map[string]float64, numCounters)
	for i, name := range counterNames {
		v[name] = float64(c[i])
	}
	return v
}

// snapshot records every counter the benchmark can read from outside — the
// databases' registries and clocks, the server's and the router's — under a
// boundary's name.
func (e *env) snapshot(at string) {
	v := readCounters(e.dbs...).values()
	if e.srv != nil {
		s := e.srv.Metrics().Snapshot()
		v["serve.requests"], v["serve.executions"], v["serve.coalesced"] = float64(s.Requests), float64(s.Executions), float64(s.Coalesced)
		v["serve.rejected"], v["serve.timeouts"] = float64(s.Rejected), float64(s.Timeouts)
	}
	if e.router != nil {
		for city, s := range e.router.Snapshot() {
			v["tenant."+city+".requests"], v["tenant."+city+".opens"], v["tenant."+city+".closes"] = float64(s.Requests), float64(s.Opens), float64(s.Closes)
		}
	}
	e.tr.snapshot(at, v)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// passTotals are one class's sums over an exact pass.
type passTotals struct {
	n              int
	c              counters
	wall           time.Duration
	mallocs, bytes uint64
}

// exactPass answers every request once on one goroutine with span recording
// off and charges each query exactly what the counters moved while it ran.
// With cold set every cache is dropped before each query. A wrong answer is a
// failure.
func (e *env) exactPass(rec *record, dbs []*ptldb.DB, cold bool) [numClasses]passTotals {
	var tot [numClasses]passTotals
	var m0, m1 runtime.MemStats
	for i, r := range e.reqs {
		db := dbs[0]
		if len(dbs) > 1 {
			db = dbs[r.City]
		}
		if cold {
			if err := db.DropCaches(); err != nil {
				rec.fail("drop caches: %v", err)
			}
		}
		c0 := readCounters(dbs...)
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		got, err := ask(db, r)
		wall := time.Since(t0)
		runtime.ReadMemStats(&m1)
		c1 := readCounters(dbs...)
		rec.Attempted++
		if err != nil || !got.equal(e.want[i]) {
			rec.fail("exact pass: %s %+v answered %+v (%v), want %+v", kindNames[r.Kind], r, got, err, e.want[i])
		}
		t := &tot[r.Kind.class()]
		t.n++
		t.c.add(c1.minus(c0))
		t.wall += wall
		t.mallocs += m1.Mallocs - m0.Mallocs
		t.bytes += m1.TotalAlloc - m0.TotalAlloc
	}
	return tot
}

func (rec *record) layer(name string, v float64) { rec.set(perLayer, name, one(v)) }

// tracedRun measures the per-layer metrics: exact single-goroutine passes
// with counter deltas, span-recording passes whose parentage is exact because
// one request is in flight at a time, probes of the table read path, and one
// window of the workload's real load with spans off and one with spans on.
func tracedRun(def *workloadDef, p params) (*record, error) {
	rec := newRecord(def, p.seed, p.seconds, true)
	reqs, err := def.generate(p.seed)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	hook := &hookWalls{}
	p.setups = 1
	e, _, err := repeatedSetup(def, reqs, p, tr, hook.observe)
	if err != nil {
		return nil, err
	}
	defer e.discard()
	rec.Datasets = e.data
	e.checkOracle(rec, p.seed)
	cold := def.Driver == drvDiskCold

	// Build pipeline and what it produced.
	rec.layer("synth.generate_s", e.build.Generate.Seconds())
	rec.layer("order.order_s", e.build.Order.Seconds())
	rec.layer("ttl.build_s", e.build.Labels.Seconds())
	rec.layer("ttl.augment_s", e.build.Augment.Seconds())
	rec.layer("core.load_s", e.build.Load.Seconds())
	rec.layer("core.targetset_s", e.build.TargetSet.Seconds())
	var stops, tuples, dummies int
	disk := map[string]int64{}
	for _, ds := range e.data {
		stops, tuples, dummies = stops+ds.Stops, tuples+ds.LabelTuples, dummies+ds.DummyTuples
		for ext, n := range ds.DiskBytes {
			disk[ext] += n
		}
	}
	rec.layer("ttl.tuples_per_stop", float64(tuples/stops))
	rec.layer("ttl.dummy_tuples", float64(dummies))
	rec.layer("storage.disk_bytes_heap", float64(disk["heap"]))
	rec.layer("storage.disk_bytes_idx", float64(disk["idx"]))
	rec.layer("storage.disk_bytes_seg", float64(disk["seg"]))

	// Exact pass: counters per query, on the workload's device — and for
	// disk_cold again on the SSD model, which must read the same pages.
	e.snapshot("exact.begin")
	main := e.exactPass(rec, e.dbs, cold)
	e.snapshot("exact.end")
	other := main
	if cold {
		other = e.exactPass(rec, []*ptldb.DB{e.ssd}, true)
	}
	var all counters
	for c, name := range classNames {
		t, o := main[c], other[c]
		n := float64(t.n)
		all.add(t.c)
		rec.layer("exec.rows_scanned_per_query_"+name, float64(t.c[cntRows])/n)
		rec.layer("exec.tuples_merged_per_query_"+name, float64(t.c[cntMerged])/n)
		rec.layer("exec.allocs_per_query_"+name, float64(t.mallocs)/n)
		rec.layer("exec.alloc_bytes_per_query_"+name, float64(t.bytes)/n)
		rec.layer("storage.pages_per_query_"+name, float64(t.c[cntPoolMisses])/n)
		rec.layer("storage.segment_bytes_per_query_"+name, float64(t.c[cntSegBytes])/n)
		rec.layer("storage.wall_us_per_query_"+name, float64(t.wall.Microseconds())/n)
		hdd, ssd, over := 0.0, float64(t.c.sim().Microseconds())/n, 0.0
		if cold {
			hdd, ssd = ssd, float64(o.c.sim().Microseconds())/n
			over = float64(t.wall+t.c.sim()) / float64(o.wall+o.c.sim())
			if t.c[cntPoolMisses] != o.c[cntPoolMisses] {
				rec.fail("%s: HDD pass read %d pages, SSD pass %d", name, t.c[cntPoolMisses], o.c[cntPoolMisses])
			}
		}
		rec.layer("storage.sim_us_per_query_"+name+"_hdd", hdd)
		rec.layer("storage.sim_us_per_query_"+name+"_ssd", ssd)
		rec.layer("storage.hdd_over_ssd_"+name, over)
	}
	rec.layer("exec.fused_ratio", ratio(all[cntFused], all[cntFused]+all[cntGeneral]))
	rec.layer("exec.fused_bailouts", float64(all[cntBailouts]))
	rec.layer("sqldb.stmt_cache_hit_ratio", ratio(all[cntStmtHits], all[cntStmtHits]+all[cntStmtMisses]))

	// Span pass: the same calls warm, one at a time, with spans and the
	// program's own trace hook on. A second round gives the pool's hit ratio
	// once the working set has been read.
	tr.on.Store(true)
	tr.sequential.Store(true)
	hook.on = true
	for round := 0; round < 2; round++ {
		c0 := readCounters(e.dbs...)
		for i, r := range e.reqs {
			tr.mark(0, int32(i))
			if _, err := ask(e.stores[r.City], r); err != nil {
				rec.fail("span pass: %v", err)
			}
		}
		d := readCounters(e.dbs...).minus(c0)
		rec.layer("storage.pool_hit_ratio", ratio(d[cntPoolHits], d[cntPoolHits]+d[cntPoolMisses]))
		rec.layer("vcache.hit_ratio", ratio(d[cntVCHits], d[cntVCHits]+d[cntVCMisses]))
	}
	hook.on = false
	e.snapshot("spans.end")
	rec.HookWallUs = map[string]float64{}
	for c, name := range classNames {
		rec.layer("core.query_us_"+name, usMedian(tr.durations(spanQuery, class(c), false, isRoot)))
		rec.HookWallUs[name] = usMedian(hook.wall[c])
	}
	if err := e.probeTables(rec); err != nil {
		return nil, err
	}
	e.vcacheLayers(rec)
	e.serveLayers(rec)
	if err := e.tenantLayers(rec); err != nil {
		return nil, err
	}
	e.snapshot("passes.end")

	// One window of the real load with spans off, then one with spans on.
	tr.on.Store(false)
	tr.sequential.Store(false)
	tr.open.Store(0)
	var before obs.ServeSnapshot
	if e.srv != nil {
		before = e.srv.Metrics().Snapshot()
	}
	plain := e.run(p.seed, 1, p.window)
	rec.absorb(plain)
	e.loadLayers(rec, plain, before)
	e.snapshot("load.plain.end")
	tr.on.Store(true)
	traced := e.run(p.seed, 1, p.window)
	tr.on.Store(false)
	rec.absorb(traced)
	e.snapshot("load.traced.end")
	p0, p1 := summarize(plain.windows[0].lat[cV2V]).MidUs, summarize(traced.windows[0].lat[cV2V]).MidUs
	rec.layer("loadgen.trace_overhead_ratio", p1/p0)

	if err := e.close(); err != nil {
		return nil, err
	}
	if p.spans != "" {
		if err := tr.write(p.spans); err != nil {
			return nil, err
		}
	}
	rec.Correct = rec.Failed == 0
	return rec, nil
}

// probeTables times the two table-level calls the fused executor makes: a
// point lookup on lout and a full scan of the kNN table.
func (e *env) probeTables(rec *record) error {
	sdb := e.dbs[0].Store().DB
	lout, ok := sdb.Table("lout")
	knn, ok2 := sdb.Table("knn_ea_" + targetSet)
	if !ok || !ok2 {
		return fmt.Errorf("probe: lout or knn_ea_%s missing", targetSet)
	}
	var scratch exec.RowScratch
	key := make([]int64, 1)
	for i, r := range e.reqs {
		if r.City != 0 || r.Kind.class() != cV2V {
			continue
		}
		key[0] = int64(r.From)
		id := e.tr.begin(spanLookup, 0, int32(i), cV2V)
		_, found, err := lout.LookupPKScratch(key, &scratch)
		e.tr.end(id)
		if err != nil || !found {
			return fmt.Errorf("probe: lout lookup of stop %d: found %v, %v", r.From, found, err)
		}
	}
	for i := 0; i < 50; i++ {
		id := e.tr.begin(spanScan, 0, 0, cKNN)
		err := knn.ScanScratch(&scratch, func(sqltypes.Row) error { return nil })
		e.tr.end(id)
		if err != nil {
			return fmt.Errorf("probe: scan: %w", err)
		}
	}
	rec.layer("sqldb.lookup_us_lout", usMedian(e.tr.durations(spanLookup, cV2V, false, nil)))
	rec.layer("sqldb.scan_us_knn", usMedian(e.tr.durations(spanScan, cKNN, false, nil)))
	return nil
}

// vcacheLayers reads the vector cache's standing counters.
func (e *env) vcacheLayers(rec *record) {
	var resident int64
	var mats, evictions, matCount uint64
	var matUs float64
	for _, db := range e.dbs {
		if vc := db.Snapshot().VCache; vc != nil {
			resident += vc.ResidentBytes
			mats += vc.Materializations
			evictions += vc.Evictions
			matCount += vc.Materialize.Count
			matUs += vc.Materialize.MeanUs * float64(vc.Materialize.Count)
		}
	}
	rec.layer("vcache.resident_mb", float64(resident)/(1<<20))
	rec.layer("vcache.materializations", float64(mats))
	rec.layer("vcache.evictions", float64(evictions))
	ms := 0.0
	if matCount > 0 {
		ms = matUs / float64(matCount) / 1e3
	}
	rec.layer("vcache.materialize_ms", ms)
}

// serveLayers splits an HTTP request's time: the handler's own share from a
// pass that calls ServeHTTP on a recorder, the wire's share from a pass over
// one real connection. Workloads without a server report zeros.
func (e *env) serveLayers(rec *record) {
	var bodyBytes [numClasses]int
	var n [numClasses]int
	lo := int32(0)
	if e.srv != nil {
		h := e.tr.handler(e.srv)
		lo = e.tr.next()
		for i, r := range e.reqs {
			c := r.Kind.class()
			req := httptest.NewRequest("GET", e.urls[i], nil)
			req.Header.Set(spanHeader, fmt.Sprintf("0 %d %d", i, c))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			rec.Attempted++
			if w.Code != 200 || !bytes.Equal(w.Body.Bytes(), e.body[i]) {
				rec.fail("recorder pass: %s: HTTP %d %s", e.urls[i], w.Code, w.Body)
			}
			bodyBytes[c] += w.Body.Len()
			n[c]++
		}
	}
	hi := e.tr.next()
	inPass := func(s span) bool { return s.ID >= lo && s.ID < hi && s.Parent == 0 }
	for c, name := range classNames {
		rec.layer("serve.handler_self_us_"+name, usMedian(e.tr.durations(spanHandler, class(c), true, inPass)))
		b := 0.0
		if n[c] > 0 {
			b = float64(bodyBytes[c]) / float64(n[c])
		}
		rec.layer("serve.resp_bytes_"+name, b)
	}
	lo = e.tr.next()
	if e.srv != nil {
		cl := newClient()
		var out runOut
		for i := range e.reqs {
			id, hv := e.spanValue(i)
			e.fetch(cl, i, &out, hv)
			e.tr.end(id)
		}
		cl.close()
		rec.absorb(out)
	}
	hi = e.tr.next()
	for c, name := range classNames {
		rec.layer("serve.wire_us_"+name, usMedian(e.tr.durations(spanRequest, class(c), true, inPass)))
	}
}

// tenantLayers times Router.Acquire on an open tenant and reports the
// router's lifecycle counters. Workloads without a router report zeros.
func (e *env) tenantLayers(rec *record) error {
	var opens, closes uint64
	openMs := 0.0
	if e.router != nil {
		for i := 0; i < 2000; i++ {
			id := e.tr.begin(spanAcquire, 0, 0, cV2V)
			t, err := e.router.Acquire(e.def.Cities[0].Key)
			e.tr.end(id)
			if err != nil {
				return err
			}
			t.Release()
		}
		for _, s := range e.router.Snapshot() {
			opens, closes = opens+s.Opens, closes+s.Closes
		}
		for _, d := range e.tenantOpen {
			openMs += float64(d) / 1e6 / float64(len(e.tenantOpen))
		}
	}
	rec.layer("tenant.acquire_us", usMedian(e.tr.durations(spanAcquire, cV2V, false, nil)))
	rec.layer("tenant.open_ms", openMs)
	rec.layer("tenant.opens", float64(opens))
	rec.layer("tenant.closes", float64(closes))
	return nil
}

// loadLayers reports what one untraced window of the workload's real load
// did to the serving counters and how punctual the generator was.
func (e *env) loadLayers(rec *record, out runOut, before obs.ServeSnapshot) {
	win := out.windows[0]
	offered := out.offered
	if offered == 0 {
		offered = float64(win.ok) / win.busy.Seconds() // a closed loop offers what it completes
	}
	rec.layer("loadgen.offered_qps", offered)
	rec.layer("loadgen.ref_us", usMedian(win.ref))
	for c, name := range classNames {
		rec.layer("loadgen."+name+"_p99_us", summarize(win.lat[c]).TailUs)
	}
	late := 0.0
	if len(out.late) > 0 {
		sort.Slice(out.late, func(i, j int) bool { return out.late[i] < out.late[j] })
		late = percentile(out.late, tailPercentile(len(out.late))) / 1e3
	}
	rec.layer("loadgen.late_p99_us", late)
	var execs, coalesced, rejected, timeouts float64
	if e.srv != nil {
		s := e.srv.Metrics().Snapshot()
		d := func(now, before uint64) float64 { return float64(now - before) }
		if reqs := d(s.Requests, before.Requests); reqs > 0 {
			execs, coalesced = d(s.Executions, before.Executions)/reqs, d(s.Coalesced, before.Coalesced)/reqs
		}
		rejected, timeouts = d(s.Rejected, before.Rejected), d(s.Timeouts, before.Timeouts)
	}
	rec.layer("serve.executions_per_request", execs)
	rec.layer("serve.coalesced_ratio", coalesced)
	rec.layer("serve.rejected", rejected)
	rec.layer("serve.timeouts", timeouts)
}
