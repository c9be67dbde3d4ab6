package core

import (
	"strings"
	"testing"

	"ptldb/internal/sqldb"
	"ptldb/internal/sqldb/storage"
	"ptldb/internal/timetable"
	"ptldb/internal/ttl"
)

// fusedV2VKinds and fusedSetKinds are the fused plans (exec.FusedPlan.Kind)
// the entries of the statement table must compile to, by kind.
var (
	fusedV2VKinds = [numV2VKinds]string{"v2v-ea", "v2v-ld", "v2v-sd", "v2v-ea-witness"}
	fusedSetKinds = [numSetKinds]string{"knn-naive-ea", "knn-naive-ld", "cond-knn-ea", "cond-knn-ld", "cond-otm-ea", "cond-otm-ld"}
)

// TestPreparedStatementsFuse walks the whole statement table — the base
// version, a version added with AddVersion, and a target set on each — and
// requires every entry to compile to its fused plan over its own version's
// tables. Then the query battery never reaches the general executor.
func TestPreparedStatementsFuse(t *testing.T) {
	st, labels := paperStore(t)
	if err := st.AddVersion("weekend", labels); err != nil {
		t.Fatal(err)
	}
	we, err := st.Version("weekend")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AddTargetSet("poi", []timetable.StopID{4, 6}, 4); err != nil {
		t.Fatal(err)
	}
	if err := we.AddTargetSet("poi", []timetable.StopID{2, 5}, 2); err != nil {
		t.Fatal(err)
	}

	if len(st.stmts) != 2 {
		t.Fatalf("statement table has %d versions, want 2", len(st.stmts))
	}
	for version, e := range st.stmts {
		lout := "lout"
		if version != BaseVersion {
			lout += "__" + version
		}
		check := func(name string, stmt *sqldb.Stmt, kind string) {
			t.Helper()
			if !stmt.Fused() || stmt.Kind() != kind {
				t.Errorf("%s %s: fused %v as %q, want %q", version, name, stmt.Fused(), stmt.Kind(), kind)
				return
			}
			if plan, _ := stmt.Explain(); !strings.Contains(plan, " "+lout+" ") {
				t.Errorf("%s %s does not read %s:\n%s", version, name, lout, plan)
			}
		}
		for k, stmt := range e.v2v {
			check(v2vKindNames[k], stmt, fusedV2VKinds[k])
		}
		if len(e.sets) != 1 {
			t.Errorf("%s: %d target sets in the statement table, want 1", version, len(e.sets))
		}
		for set, ss := range e.sets {
			for k, stmt := range ss.stmts {
				check(setKindNames[k]+":"+set, stmt, fusedSetKinds[k])
			}
		}
	}

	queryBattery(t, st)
	queryBattery(t, we)
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
