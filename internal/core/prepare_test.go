package core

import (
	"slices"
	"strings"
	"testing"

	"ptldb/internal/order"
	"ptldb/internal/sqldb"
	"ptldb/internal/sqldb/storage"
	"ptldb/internal/timetable"
	"ptldb/internal/ttl"
)

// queryBattery runs one query of every kind the store supports, the journey
// included where the path tables exist.
func queryBattery(t *testing.T, st *Store) {
	t.Helper()
	if st.HasPathTables() {
		if _, _, err := st.EarliestArrivalJourneyDB(5, 6, 28800); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := st.EarliestArrival(0, 4, 36000); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.LatestDeparture(0, 4, 50000); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.ShortestDuration(0, 4, 0, 86400); err != nil {
		t.Fatal(err)
	}
	for _, fn := range []func(string, timetable.StopID, timetable.Time, int) ([]Result, error){
		st.EAKNN, st.EAKNNNaive, st.LDKNN, st.LDKNNNaive,
	} {
		if _, err := fn("poi", 0, 36000, 2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.EAOTM("poi", 0, 36000); err != nil {
		t.Fatal(err)
	}
	if _, err := st.LDOTM("poi", 0, 36000); err != nil {
		t.Fatal(err)
	}
}

// reopenedStore builds the Figure-1 store with a second version, a target
// set on each version and the base version's path tables, closes it, and
// opens the directory again on a fresh handle, whose parse counter starts at
// zero: two versions and two sets.
func reopenedStore(t *testing.T) *Store {
	t.Helper()
	dir := t.TempDir()
	opts := sqldb.Options{Device: storage.RAM, PoolPages: 4096}
	db, err := sqldb.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	labels := ttl.Build(timetable.PaperExample(), order.Identity(7)).Augment()
	built, err := Build(db, labels, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := built.AddVersion("weekend", labels); err != nil {
		t.Fatal(err)
	}
	we, err := built.Version("weekend")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Store{built, we} {
		if err := s.AddTargetSet("poi", []timetable.StopID{4, 6}, 4); err != nil {
			t.Fatal(err)
		}
	}
	if err := built.BuildPathTables(timetable.PaperExample()); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = sqldb.Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	st, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSteadyStateZeroParse: Open prepares every statement the store can run —
// four per version and six per target set — and nothing after it parses
// again: not a query battery on any version, not a Version bind.
func TestSteadyStateZeroParse(t *testing.T) {
	st := reopenedStore(t)
	const versions, sets = 2, 2
	hits, misses := st.DB.StmtCacheStats()
	if want := uint64(4*versions + 6*sets); hits != 0 || misses != want {
		t.Fatalf("after Open: StmtCacheStats = (%d, %d), want (0, %d): 4 per version, 6 per set", hits, misses, want)
	}
	const rounds = 5
	for i := 0; i < rounds; i++ {
		for _, name := range st.Versions() {
			v, err := st.Version(name)
			if err != nil {
				t.Fatal(err)
			}
			queryBattery(t, v)
		}
		queryBattery(t, st)
	}
	if _, after := st.DB.StmtCacheStats(); after != misses {
		t.Errorf("%d query batteries and Version binds parsed %d statements; want 0", rounds, after-misses)
	}
}

// TestReopenPreparesStatements: a store opened from disk holds the statement
// table the built one held — every name ExplainGoldens pins, on every
// version, rendering its golden plan over that version's tables — and a
// Version view binds the version's shared entry.
func TestReopenPreparesStatements(t *testing.T) {
	st := reopenedStore(t)
	weekend := strings.NewReplacer(" lout ", " lout__weekend ", " lin ", " lin__weekend ", "_poi ", "_poi__weekend ")
	for _, version := range st.Versions() {
		v, err := st.Version(version)
		if err != nil {
			t.Fatal(err)
		}
		if v.ver != st.stmts[version] {
			t.Errorf("Version(%q) did not bind the version's shared entry", version)
		}
		names := v.ExplainNames()
		if len(names) != len(explainGoldens) {
			t.Errorf("%s: ExplainNames lists %d queries, goldens pin %d: %v", version, len(names), len(explainGoldens), names)
		}
		for _, name := range names {
			want := explainGoldens[name]
			if version != BaseVersion {
				want = weekend.Replace(want)
			}
			if got, err := v.ExplainPrepared(name); err != nil || got != want {
				t.Errorf("%s: explain %q after Open = %v\n%s want:\n%s", version, name, err, got, want)
			}
		}
	}
}

// TestTargetSetSharedAcrossViews: every view of a version shares its entry
// in the statement table, so a set added through one view is queryable —
// and explainable — through a view bound before it was added.
func TestTargetSetSharedAcrossViews(t *testing.T) {
	st, _ := paperStore(t)
	v, err := st.Version(BaseVersion)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AddTargetSet("poi", []timetable.StopID{4, 6}, 4); err != nil {
		t.Fatal(err)
	}
	got, err := v.EAKNN("poi", 0, 36000, 2)
	if err != nil {
		t.Fatalf("view bound before AddTargetSet: %v", err)
	}
	want, err := st.EAKNN("poi", 0, 36000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) || len(got) == 0 {
		t.Errorf("view answers %v, the store %v", got, want)
	}
	if _, err := v.ExplainPrepared("otm-ld:poi"); err != nil {
		t.Errorf("view cannot explain the set: %v", err)
	}
}
