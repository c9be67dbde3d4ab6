package core

import (
	"math/rand"
	"os"
	"testing"

	"ptldb/internal/csa"
	"ptldb/internal/order"
	"ptldb/internal/sqldb"
	"ptldb/internal/sqldb/storage"
	"ptldb/internal/timetable"
	"ptldb/internal/ttl"
)

// TestVersions exercises the paper's Section 3.1 multi-period design: one
// database holding weekday (base) and weekend timetable versions, each with
// its own label tables and target sets.
func TestVersions(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	weekday := randomTimetable(rng, 15, 260)
	weekend := randomTimetable(rng, 15, 120) // sparser service

	st, _ := newStore(t, weekday, order.ByDegree(weekday), BuildOptions{})
	weekendLabels := ttl.Build(weekend, order.ByDegree(weekend)).Augment()
	if err := st.AddVersion("weekend", weekendLabels); err != nil {
		t.Fatal(err)
	}

	if got := st.Versions(); len(got) != 2 || got[0] != "base" || got[1] != "weekend" {
		t.Fatalf("Versions = %v", got)
	}

	we, err := st.Version("weekend")
	if err != nil {
		t.Fatal(err)
	}

	// Every version answers with its own timetable's oracle.
	for trial := 0; trial < 60; trial++ {
		s := timetable.StopID(rng.Intn(15))
		g := timetable.StopID(rng.Intn(15))
		if s == g {
			continue
		}
		tq := timetable.Time(rng.Intn(90000))

		want := csa.EarliestArrival(weekday, s, g, tq)
		got, ok, err := st.EarliestArrival(s, g, tq)
		if err != nil {
			t.Fatal(err)
		}
		if ok != (want < timetable.Infinity) || (ok && got != want) {
			t.Fatalf("base EA(%d,%d,%v) = %v,%v want %v", s, g, tq, got, ok, want)
		}

		wantWE := csa.EarliestArrival(weekend, s, g, tq)
		gotWE, okWE, err := we.EarliestArrival(s, g, tq)
		if err != nil {
			t.Fatal(err)
		}
		if okWE != (wantWE < timetable.Infinity) || (okWE && gotWE != wantWE) {
			t.Fatalf("weekend EA(%d,%d,%v) = %v,%v want %v", s, g, tq, gotWE, okWE, wantWE)
		}
	}

	// Target sets are per version: same name, independent tables.
	targets := []timetable.StopID{2, 5, 9}
	if err := st.AddTargetSet("poi", targets, 4); err != nil {
		t.Fatal(err)
	}
	if err := we.AddTargetSet("poi", targets, 4); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.TargetSets()["poi"]; !ok {
		t.Error("base target set missing")
	}
	if _, ok := we.TargetSets()["poi"]; !ok {
		t.Error("weekend target set missing")
	}
	weekdayLabels := ttl.Build(weekday, order.ByDegree(weekday)).Augment()
	for trial := 0; trial < 20; trial++ {
		q := timetable.StopID(rng.Intn(15))
		tq := timetable.Time(rng.Intn(90000))
		perBase := map[timetable.StopID]timetable.Time{}
		perWE := map[timetable.StopID]timetable.Time{}
		for _, w := range targets {
			perBase[w] = weekdayLabels.EarliestArrival(q, w, tq)
			perWE[w] = weekendLabels.EarliestArrival(q, w, tq)
		}
		gotBase, err := st.EAKNN("poi", q, tq, 2)
		if err != nil {
			t.Fatal(err)
		}
		checkKNN(t, "base EA-kNN", gotBase, oracleKNNEA(weekdayLabels, q, targets, tq, 2), perBase)
		gotWE, err := we.EAKNN("poi", q, tq, 2)
		if err != nil {
			t.Fatal(err)
		}
		checkKNN(t, "weekend EA-kNN", gotWE, oracleKNNEA(weekendLabels, q, targets, tq, 2), perWE)
	}
}

func TestVersionValidation(t *testing.T) {
	st, _ := paperStore(t)
	labels := ttl.Build(timetable.PaperExample(), order.Identity(7)).Augment()
	if err := st.AddVersion("base", labels); err == nil {
		t.Error("shadowing the base version accepted")
	}
	if err := st.AddVersion("Bad Name", labels); err == nil {
		t.Error("invalid version name accepted")
	}
	var b timetable.Builder
	b.AddStops(3)
	small := ttl.Build(b.MustBuild(), order.Identity(3)).Augment()
	if err := st.AddVersion("tiny", small); err == nil {
		t.Error("stop-count mismatch accepted")
	}
	if err := st.AddVersion("sunday", labels); err != nil {
		t.Fatal(err)
	}
	if err := st.AddVersion("sunday", labels); err == nil {
		t.Error("duplicate version accepted")
	}
	if _, err := st.Version("nope"); err == nil {
		t.Error("unknown version accepted")
	}
	// The version survives reopening via the persisted meta.
	st2, err := Open(st.DB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Version("sunday"); err != nil {
		t.Errorf("version lost after Open: %v", err)
	}
}

// TestOneFormPerTable: a built directory holds catalog.json and exactly one
// file per catalogued table, <table>.seg — after Build, after AddTargetSet,
// AddVersion and BuildPathTables (each of which also rewrites ptldb_meta), and
// after a reopen, which must create nothing.
func TestOneFormPerTable(t *testing.T) {
	tt := timetable.PaperExample()
	dir := t.TempDir()
	db, err := sqldb.Open(dir, sqldb.Options{Device: storage.RAM, PoolPages: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	onlySegments := func(when string) {
		t.Helper()
		want := map[string]bool{"catalog.json": true}
		for _, name := range db.Tables() {
			want[name+".seg"] = true
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !want[e.Name()] {
				t.Errorf("%s: unexpected file %s", when, e.Name())
			}
			delete(want, e.Name())
		}
		for name := range want {
			t.Errorf("%s: %s is missing", when, name)
		}
	}
	labels := ttl.Build(tt, order.Identity(7)).Augment()
	st, err := Build(db, labels, BuildOptions{Stops: tt.Stops()})
	if err != nil {
		t.Fatal(err)
	}
	onlySegments("after Build")
	if err := st.AddTargetSet("poi", []timetable.StopID{4, 6}, 4); err != nil {
		t.Fatal(err)
	}
	onlySegments("after AddTargetSet")
	if err := st.AddVersion("weekend", labels); err != nil {
		t.Fatal(err)
	}
	onlySegments("after AddVersion")
	if err := st.BuildPathTables(tt); err != nil {
		t.Fatal(err)
	}
	onlySegments("after BuildPathTables")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = sqldb.Open(dir, sqldb.Options{Device: storage.RAM, PoolPages: 4096}); err != nil {
		t.Fatal(err)
	}
	if st, err = Open(db); err != nil {
		t.Fatal(err)
	}
	onlySegments("after a reopen")
	for _, name := range []string{"lout", "lin", "lout__weekend", "knn_naive_poi", "knn_ld_poi", "otm_ea_poi", "stops", "ptldb_meta", "paths_out", "paths_in"} {
		if _, ok := db.Table(name); !ok {
			t.Errorf("expected table %s, have %v", name, db.Tables())
		}
	}
	// The reopened store still has what the last metadata rewrite recorded.
	if _, ok := st.TargetSet("poi"); !ok || len(st.Versions()) != 2 || !st.HasPathTables() {
		t.Errorf("reopened store: target sets %v, versions %v, path tables %v", st.TargetSets(), st.Versions(), st.HasPathTables())
	}
}
