package core

import (
	"strings"
	"testing"

	"ptldb/internal/obs"
	"ptldb/internal/sqldb"
	"ptldb/internal/sqldb/storage"
	"ptldb/internal/timetable"
	"ptldb/internal/ttl"
)

// TestPreparedStatementsFuse walks the whole statement table — the base
// version, a version added with AddVersion, and a target set on each — and
// requires every entry to compile to the fused plan of its code (its Kind is
// the code's name) over its own version's tables: four per version, six per
// target set. Then the query battery never reaches the general executor.
func TestPreparedStatementsFuse(t *testing.T) {
	st, _ := paperStore(t, addSet("poi", []timetable.StopID{4, 6}, 4), addVersion("weekend", paperLabels(), addSet("poi", []timetable.StopID{2, 5}, 2)))
	we, err := st.Version("weekend")
	if err != nil {
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
		check := func(where string, stmts *stmtTable, want int) {
			t.Helper()
			n := 0
			for code, stmt := range stmts {
				if stmt == nil {
					continue
				}
				n++
				name := obs.Code(code).String()
				if !stmt.Fused() || stmt.Kind() != name {
					t.Errorf("%s %s: fused %v as %q, want %q", version, where, stmt.Fused(), stmt.Kind(), name)
					continue
				}
				if plan, _ := stmt.Explain(); !strings.Contains(plan, " "+lout+" ") {
					t.Errorf("%s %s %s does not read %s:\n%s", version, where, name, lout, plan)
				}
			}
			if n != want {
				t.Errorf("%s %s: %d statements, want %d", version, where, n, want)
			}
		}
		check("v2v", &e.stmts, 4)
		if len(e.sets) != 1 {
			t.Errorf("%s: %d target sets in the statement table, want 1", version, len(e.sets))
		}
		for set, ss := range e.sets {
			check("set "+set, &ss.stmts, 6)
		}
	}

	queryBattery(t, st)
	queryBattery(t, we)
	ex := &st.DB.Registry().Exec
	fused, general := ex.FusedRuns.Load(), ex.GeneralRuns.Load()
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
		for _, frag := range []string{"lout", "row 3", "run order", "row = stop id"} {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("%s: error lacks %q: %v", what, frag, err)
			}
		}
	}
	check("AddVersion", NewWriter(st.DB, 0).AddVersion("weekend", bad))
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
