package core

import (
	"strings"
	"testing"

	"ptldb/internal/sqldb"
	"ptldb/internal/sqldb/exec"
	"ptldb/internal/sqldb/storage"
	"ptldb/internal/timetable"
	"ptldb/internal/ttl"
)

// TestPreparedStatementsFuse asserts that every statement the store issues
// compiles to a fused plan, and that the full query battery never reaches the
// general executor.
func TestPreparedStatementsFuse(t *testing.T) {
	st, _ := paperStore(t)
	if err := st.AddTargetSet("poi", []timetable.StopID{4, 6}, 4); err != nil {
		t.Fatal(err)
	}

	if !st.v2vEA.Fused() || !st.v2vLD.Fused() || !st.v2vSD.Fused() || !st.v2vWitness.Fused() {
		t.Errorf("v2v statements fused = %v, %v, %v, %v; want all true",
			st.v2vEA.Fused(), st.v2vLD.Fused(), st.v2vSD.Fused(), st.v2vWitness.Fused())
	}

	knn := []struct {
		name   string
		format string
		args   []any
	}{
		{"knn-naive-ea", exec.SQLKNNNaiveEA, []any{st.setTable("ea_knn_naive", "poi"), st.loutTable()}},
		{"knn-naive-ld", exec.SQLKNNNaiveLD, []any{st.setTable("ld_knn_naive", "poi"), st.loutTable()}},
		{"knn-ea", exec.SQLKNNEA, []any{st.setTable("knn_ea", "poi"), st.meta.BucketSeconds, st.loutTable()}},
		{"knn-ld", exec.SQLKNNLD, []any{st.setTable("knn_ld", "poi"), st.meta.BucketSeconds, st.loutTable()}},
		{"otm-ea", exec.SQLOTMEA, []any{st.setTable("otm_ea", "poi"), st.meta.BucketSeconds, st.loutTable()}},
		{"otm-ld", exec.SQLOTMLD, []any{st.setTable("otm_ld", "poi"), st.meta.BucketSeconds, st.loutTable()}},
	}
	for _, q := range knn {
		stmt, err := st.prepared(q.format, q.args...)
		if err != nil {
			t.Fatalf("%s: prepare: %v", q.name, err)
		}
		if !stmt.Fused() {
			t.Errorf("%s: statement did not fuse", q.name)
		}
	}

	queryBattery(t, st)
	fused, general := st.DB.FusedStats()
	if fused == 0 {
		t.Error("query battery recorded no fused executions")
	}
	if general != 0 {
		t.Errorf("query battery ran the general executor %d times, want 0", general)
	}
}

// TestBuildRejectsUnorderedLabels: a label whose arrivals descend while its
// departures ascend inside one hub's run is in no order a sort can repair.
// The label tables declare their run order, so Build and AddVersion stop with
// the table and the stop named instead of storing an image the run-order join
// would answer wrongly.
func TestBuildRejectsUnorderedLabels(t *testing.T) {
	st, labels := paperStore(t)
	bad := labels.Clone()
	run := []ttl.Tuple{
		{Hub: 0, Dep: 100, Arr: 900, Pivot: timetable.NoStop, Trip: timetable.NoTrip},
		{Hub: 0, Dep: 200, Arr: 800, Pivot: timetable.NoStop, Trip: timetable.NoTrip},
	}
	bad.Out[3] = append(run, bad.Out[3]...)
	check := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s accepted a label that is not run-ordered", what)
		}
		for _, frag := range []string{"lout", "row 3", "run order"} {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("%s: error lacks %q: %v", what, frag, err)
			}
		}
	}
	check("AddVersion", st.AddVersion("weekend", bad))
	if arr, ok, err := st.EarliestArrival(1, 1, 32400); err != nil || !ok || arr != 32400 {
		t.Errorf("after the refused version: EA(1,1,324) = %v, %v, %v", arr, ok, err)
	}
	db, err := sqldb.Open(t.TempDir(), sqldb.Options{Device: storage.RAM, PoolPages: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, err = Build(db, bad, BuildOptions{})
	check("Build", err)
}
