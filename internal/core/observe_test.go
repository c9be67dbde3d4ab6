package core

import (
	"strings"
	"testing"
	"time"

	"ptldb/internal/obs"
	"ptldb/internal/order"
	"ptldb/internal/sqldb"
	"ptldb/internal/sqldb/storage"
	"ptldb/internal/timetable"
	"ptldb/internal/ttl"
)

// explainGoldens pins the operator tree of every prepared paper query on the
// paper's worked example (7 stops, identity order, target set {4, 6}, one-hour
// buckets) on a handle without a vector cache: label reads served from the
// columnar segments, hence the Segment* access-path operators. The rendering
// is deterministic; a change here is a change to the fused executor's shape and
// should be deliberate.
var explainGoldens = map[string]string{
	"v2v-ea": `FusedPlan v2v-ea
└─ Aggregate MIN(in.ta)
   └─ RunJoin out.hub = in.hub, reach out.ta <= in.td
      ├─ SegmentLookup lout [v = $1, td >= $3]
      └─ SegmentLookup lin [v = $2]
`,
	"v2v-ld": `FusedPlan v2v-ld
└─ Aggregate MAX(out.td)
   └─ RunJoin out.hub = in.hub, reach out.ta <= in.td
      ├─ SegmentLookup lout [v = $1]
      └─ SegmentLookup lin [v = $2, ta <= $3]
`,
	"v2v-sd": `FusedPlan v2v-sd
└─ Aggregate MIN(in.ta - out.td)
   └─ RunJoin out.hub = in.hub, reach out.ta <= in.td
      ├─ SegmentLookup lout [v = $1, td >= $3]
      └─ SegmentLookup lin [v = $2, ta <= $4]
`,
	"v2v-ea-witness": `FusedPlan v2v-ea-witness
└─ First by in.ta, out.td desc, out.hub, out.ta, in.td
   └─ RunJoin out.hub = in.hub, reach out.ta <= in.td
      ├─ SegmentLookup lout [v = $1, td >= $3]
      └─ SegmentLookup lin [v = $2]
`,
	"knn-naive-ea:poi": `FusedPlan knn-naive-ea
└─ TopK k = $3 by MIN(n2.ta) asc, v2
   └─ GroupFold MIN(n2.ta) per target
      └─ HashJoin n1.hub = n2.hub, reach n1.ta <= n2.td
         ├─ SegmentLookup lout [v = $1, td >= $2]
         └─ SegmentScan knn_naive_poi [vs[1:$3], tas[1:$3]]
`,
	"knn-naive-ld:poi": `FusedPlan knn-naive-ld
└─ TopK k = $3 by MAX(n1.td) desc, v2
   └─ GroupFold MAX(n1.td) per target
      └─ HashJoin n1.hub = n2.hub, reach n1.ta <= n2.td
         ├─ SegmentLookup lout [v = $1]
         └─ SegmentScan knn_naive_poi [vs[1:$3], tas[1:$3], ta <= $2]
`,
	"knn-ea:poi": `FusedPlan cond-knn-ea
└─ TopK k = $3 by MIN(ta) asc, v2
   └─ GroupFold MIN(ta) per target
      └─ SegmentProbe knn_ea_poi [hub = n1.hub, dephour = FLOOR(n1.ta / 3600)]
         ├─ Arm top-k: fold vs[1:$3]/tas[1:$3]
         ├─ Arm expanded: fold vs_exp/tas_exp where n1.ta <= tds_exp
         └─ SegmentLookup lout [v = $1, td >= $2]
`,
	"knn-ld:poi": `FusedPlan cond-knn-ld
└─ TopK k = $3 by MAX(td) desc, v2
   └─ GroupFold MAX(td) per target
      └─ SegmentProbe knn_ld_poi [hub = n1.hub, arrhour = FLOOR($2 / 3600)]
         ├─ Arm top-k: fold vs[1:$3] where tds[1:$3] >= n1.ta
         ├─ Arm expanded: fold vs_exp where tds_exp >= n1.ta and tas_exp <= $2
         └─ SegmentLookup lout [v = $1]
`,
	"otm-ea:poi": `FusedPlan cond-otm-ea
└─ Sort by MIN(ta) asc, v2
   └─ GroupFold MIN(ta) per target
      └─ SegmentProbe otm_ea_poi [hub = n1.hub, dephour = FLOOR(n1.ta / 3600)]
         ├─ Arm top-k: fold vs/tas
         ├─ Arm expanded: fold vs_exp/tas_exp where n1.ta <= tds_exp
         └─ SegmentLookup lout [v = $1, td >= $2]
`,
	"otm-ld:poi": `FusedPlan cond-otm-ld
└─ Sort by MAX(td) desc, v2
   └─ GroupFold MAX(td) per target
      └─ SegmentProbe otm_ld_poi [hub = n1.hub, arrhour = FLOOR($2 / 3600)]
         ├─ Arm top-k: fold vs where tds >= n1.ta
         ├─ Arm expanded: fold vs_exp where tds_exp >= n1.ta and tas_exp <= $2
         └─ SegmentLookup lout [v = $1]
`,
}

func TestExplainPreparedGoldens(t *testing.T) {
	st, _ := paperStore(t)
	if err := st.AddTargetSet("poi", []timetable.StopID{4, 6}, 4); err != nil {
		t.Fatal(err)
	}
	names := st.ExplainNames()
	if len(names) != len(explainGoldens) {
		t.Fatalf("ExplainNames lists %d queries, goldens pin %d: %v", len(names), len(explainGoldens), names)
	}
	for _, name := range names {
		want, ok := explainGoldens[name]
		if !ok {
			t.Errorf("no golden for %q", name)
			continue
		}
		got, err := st.ExplainPrepared(name)
		if err != nil {
			t.Errorf("explain %q: %v", name, err)
			continue
		}
		if got != want {
			t.Errorf("explain %q:\n got:\n%s want:\n%s", name, got, want)
		}
	}
}

// cachedPaperStore is the paper's worked example with the target set of the
// goldens, reopened on a handle whose vector cache has the given budget.
func cachedPaperStore(t *testing.T, budget int64) (*Store, *sqldb.DB) {
	t.Helper()
	labels := ttl.Build(timetable.PaperExample(), order.Identity(7)).Augment()
	dir := t.TempDir()
	db, err := sqldb.Open(dir, sqldb.Options{Device: storage.RAM, PoolPages: 4096})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Build(db, labels, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AddTargetSet("poi", []timetable.StopID{4, 6}, 4); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = sqldb.Open(dir, sqldb.Options{Device: storage.RAM, PoolPages: 4096, VectorCacheBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if st, err = Open(db); err != nil {
		t.Fatal(err)
	}
	return st, db
}

// checkExplain compares every prepared rendering of st with its golden
// after the substitution r.
func checkExplain(t *testing.T, st *Store, r *strings.Replacer) {
	t.Helper()
	for name, segGolden := range explainGoldens {
		want := r.Replace(segGolden)
		got, err := st.ExplainPrepared(name)
		if err != nil {
			t.Errorf("explain %q: %v", name, err)
			continue
		}
		if got != want {
			t.Errorf("explain %q:\n got:\n%s want:\n%s", name, got, want)
		}
	}
}

// TestExplainPreparedGoldensVectorCache pins the vector-tier renderings: with
// every table resident in the vector cache each access-path operator upgrades
// to its Vector* name (the warm steady state — label reads served from
// decoded column vectors) while the rest of the tree is unchanged. Derived
// from explainGoldens by exactly that substitution, so the two golden sets
// can never drift structurally.
func TestExplainPreparedGoldensVectorCache(t *testing.T) {
	st, _ := cachedPaperStore(t, 64<<20)
	checkExplain(t, st, strings.NewReplacer(
		"SegmentLookup", "VectorLookup",
		"SegmentScan", "VectorScan",
		"SegmentProbe", "VectorProbe",
	))
}

// TestExplainNamesEachTablesTier: EXPLAIN names each operator after the tier
// that serves its own table, not after whether the handle has a cache. A
// cache too small for any label table declines them all, so every rendering
// is the segment golden while the queries hit no vector.
func TestExplainNamesEachTablesTier(t *testing.T) {
	st, db := cachedPaperStore(t, 1)
	checkExplain(t, st, strings.NewReplacer())
	if _, ok, err := st.EarliestArrival(1, 1, 32400); err != nil || !ok {
		t.Fatal(ok, err)
	}
	if vc := db.Registry().Snapshot().VCache; vc.Declined == 0 || vc.Hits != 0 || vc.Materializations != 0 {
		t.Errorf("vcache = %+v; want every table declined and no hit", *vc)
	}
}

func TestExplainPreparedErrors(t *testing.T) {
	st, _ := paperStore(t)
	for _, name := range []string{"knn-ea", "knn-ea:nope", "bogus", "bogus:poi", ""} {
		if _, err := st.ExplainPrepared(name); err == nil {
			t.Errorf("explain %q: expected error", name)
		}
	}
}

// TestSnapshotWorkedExample hand-counts the observability counters on the
// paper's worked example: one EA query reads exactly the two label rows of
// Section 3.1's claim, and the per-code families record exactly the queries
// issued.
func TestSnapshotWorkedExample(t *testing.T) {
	st, _ := paperStore(t)
	reg := st.DB.Registry()
	before := reg.Snapshot()

	// The worked example: EA(1, 1, 324) = 324.
	if _, ok, err := st.EarliestArrival(1, 1, 32400); err != nil || !ok {
		t.Fatal(ok, err)
	}
	after := reg.Snapshot()
	if got := after.Exec.RowsScanned - before.Exec.RowsScanned; got != 2 {
		t.Errorf("one v2v query scanned %d label rows, the paper promises exactly 2", got)
	}
	if got := after.Exec.FusedRuns - before.Exec.FusedRuns; got != 1 {
		t.Errorf("fused runs delta = %d, want 1", got)
	}
	if after.Exec.GeneralRuns != before.Exec.GeneralRuns {
		t.Errorf("v2v query reached the general executor")
	}
	q := after.Query["v2v-ea"]
	if q.Count != before.Query["v2v-ea"].Count+1 || q.Latency.Count != q.Count {
		t.Errorf("v2v-ea query metrics = %+v", q)
	}
	if after.Exec.TuplesMerged <= before.Exec.TuplesMerged {
		t.Errorf("v2v query merged no label tuples")
	}

	// LD and SD feed their own codes, not v2v-ea.
	if _, _, err := st.LatestDeparture(1, 4, 40000); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.ShortestDuration(1, 4, 0, 80000); err != nil {
		t.Fatal(err)
	}
	final := reg.Snapshot()
	if final.Query["v2v-ea"].Count != q.Count {
		t.Errorf("LD/SD queries leaked into the v2v-ea counters")
	}
	if final.Query["v2v-ld"].Count == 0 || final.Query["v2v-sd"].Count == 0 {
		t.Errorf("LD/SD counters missing: %v", final.Query)
	}
	// Raw SQL lands under "raw".
	if _, err := st.Raw("SELECT COUNT(*) FROM lout"); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Query["raw"].Count; got != 1 {
		t.Errorf("raw count = %d, want 1", got)
	}
}

// TestTraceHook checks trace delivery: codes, the fused flag, row counts and
// wall times for both the prepared Codes and raw SQL.
func TestTraceHook(t *testing.T) {
	st, _ := paperStore(t)
	if err := st.AddTargetSet("poi", []timetable.StopID{4, 6}, 4); err != nil {
		t.Fatal(err)
	}
	var traces []obs.Trace
	st.SetTraceHook(func(tr obs.Trace) { traces = append(traces, tr) })

	if _, _, err := st.EarliestArrival(1, 1, 32400); err != nil {
		t.Fatal(err)
	}
	rs, err := st.EAKNN("poi", 1, 30000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Raw("SELECT COUNT(*) FROM lout"); err != nil {
		t.Fatal(err)
	}
	if err := st.BuildPathTables(timetable.PaperExample()); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.EarliestArrivalJourneyDB(5, 6, 28800); err != nil || !ok {
		t.Fatal(ok, err)
	}
	if len(traces) != 4 {
		t.Fatalf("got %d traces, want 4: %+v", len(traces), traces)
	}
	ea := traces[0]
	if ea.Code != "v2v-ea" || !ea.Fused || ea.Rows != 1 || ea.Wall <= 0 {
		t.Errorf("EA trace = %+v", ea)
	}
	knn := traces[1]
	if knn.Code != "knn-ea" || !knn.Fused || knn.Rows != len(rs) {
		t.Errorf("kNN trace = %+v (rows want %d)", knn, len(rs))
	}
	raw := traces[2]
	if raw.Code != "raw" || raw.Fused || raw.Rows != 1 {
		t.Errorf("raw trace = %+v", raw)
	}
	journey := traces[3]
	if journey.Code != "v2v-ea-witness" || !journey.Fused || journey.Rows != 1 {
		t.Errorf("journey trace = %+v", journey)
	}
	if n := st.DB.Registry().Snapshot().Query["v2v-ea-witness"].Count; n != 1 {
		t.Errorf("registry counts %d journeys, want 1", n)
	}

	// Errors must not emit traces (counters still tick).
	n := len(traces)
	if _, err := st.Raw("SELECT nope FROM missing"); err == nil {
		t.Fatal("expected error")
	}
	if len(traces) != n {
		t.Errorf("failed query emitted a trace")
	}
	st.SetTraceHook(nil)
	if _, _, err := st.EarliestArrival(1, 1, 32400); err != nil {
		t.Fatal(err)
	}
	if len(traces) != n {
		t.Errorf("nil hook still received traces")
	}
}

// TestVersionInheritsTraceHook: Version copies the store, so a hook installed
// before binding sees the view's queries too.
func TestVersionInheritsTraceHook(t *testing.T) {
	st, _ := paperStore(t)
	var count int
	st.SetTraceHook(func(obs.Trace) { count++ })
	v, err := st.Version(BaseVersion)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.EarliestArrival(1, 1, 32400); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("version view delivered %d traces, want 1", count)
	}
}

// TestQueryLatencyObserved: the per-code histogram records every call with a
// plausible wall time.
func TestQueryLatencyObserved(t *testing.T) {
	st, _ := paperStore(t)
	reg := st.DB.Registry()
	const n = 20
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, _, err := st.EarliestArrival(1, 4, 30000); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	h := reg.Query[obs.CodeV2VEA].Latency.Snapshot()
	if h.Count != n {
		t.Fatalf("latency samples = %d, want %d", h.Count, n)
	}
	if mean := time.Duration(h.MeanUs * 1e3); mean > elapsed {
		t.Errorf("histogram mean %v exceeds total elapsed %v", mean, elapsed)
	}
}

// TestSegmentCountersAndTracePages: the default read path serves label rows
// from columnar segments and ticks the segment counters, and a cold traced
// query's PagesRead delta includes the segment page reads (segment I/O flows
// through the buffer pool like any other page).
func TestSegmentCountersAndTracePages(t *testing.T) {
	st, _ := paperStore(t)
	reg := st.DB.Registry()
	before := reg.Snapshot()

	st.DB.DropCaches()
	var traces []obs.Trace
	st.SetTraceHook(func(tr obs.Trace) { traces = append(traces, tr) })
	if _, ok, err := st.EarliestArrival(1, 1, 32400); err != nil || !ok {
		t.Fatal(ok, err)
	}
	st.SetTraceHook(nil)

	after := reg.Snapshot()
	if got := after.Segment.Hits - before.Segment.Hits; got == 0 {
		t.Error("cold v2v query served no rows from segments")
	}
	if got := after.Segment.ColumnsDecoded - before.Segment.ColumnsDecoded; got == 0 {
		t.Error("segment hit decoded no columns")
	}
	if got := after.Segment.BytesRead - before.Segment.BytesRead; got == 0 {
		t.Error("segment hit read no payload bytes")
	}
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	if traces[0].PagesRead == 0 {
		t.Error("cold traced query reported PagesRead = 0; segment reads missing from the pool delta")
	}
	// Every page the query read came through the pool, and each was charged
	// either as a seek or as a sequential read: the split is exact.
	if tr := traces[0]; tr.RandReads == 0 || tr.RandReads+tr.SeqReads != tr.PagesRead {
		t.Errorf("trace splits %d pages into %d random + %d sequential reads", tr.PagesRead, tr.RandReads, tr.SeqReads)
	}
	if p := after.Pool; p.RandReads-before.Pool.RandReads != traces[0].RandReads ||
		p.SeqReads-before.Pool.SeqReads != traces[0].SeqReads {
		t.Errorf("snapshot read split moved %d + %d, trace says %d + %d",
			p.RandReads-before.Pool.RandReads, p.SeqReads-before.Pool.SeqReads, traces[0].RandReads, traces[0].SeqReads)
	}
}
