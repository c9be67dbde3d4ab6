package core

import (
	"testing"

	"ptldb/internal/timetable"
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

// TestSteadyStateZeroParse asserts that after one warm-up pass, the query
// path never parses SQL again: every statement comes out of the DB plan
// cache, so the statement-cache miss counter (which counts sql.Parse calls
// made through CachedPrepare) stays flat across repeated query batteries.
func TestSteadyStateZeroParse(t *testing.T) {
	st, _ := paperStore(t)
	if err := st.AddTargetSet("poi", []timetable.StopID{4, 6}, 4); err != nil {
		t.Fatal(err)
	}
	if err := st.BuildPathTables(timetable.PaperExample()); err != nil {
		t.Fatal(err)
	}

	// Warm-up: the first battery may prepare each kNN/OTM statement once.
	// (The V2V statements, the witness among them, were prepared at Build
	// time.)
	queryBattery(t, st)

	hits0, misses0 := st.DB.StmtCacheStats()
	const rounds = 5
	for i := 0; i < rounds; i++ {
		queryBattery(t, st)
	}
	hits1, misses1 := st.DB.StmtCacheStats()

	if misses1 != misses0 {
		t.Errorf("steady state parsed SQL %d times; plan cache must make this 0", misses1-misses0)
	}
	// Each battery runs 6 kNN/OTM queries through CachedPrepare; the V2V
	// statements are bound at Build/Open and never touch the cache again.
	if hits1 <= hits0 {
		t.Errorf("statement cache hits did not advance (%d -> %d); queries are not using the cache", hits0, hits1)
	}
}

// TestReopenPreparesStatements ensures a store opened from disk (rather than
// built) also has its V2V statements bound: the warm path must not differ
// between Build and Open.
func TestReopenPreparesStatements(t *testing.T) {
	st, _ := paperStore(t)
	if st.v2vEA == nil || st.v2vLD == nil || st.v2vSD == nil || st.v2vWitness == nil {
		t.Fatal("Build left V2V statements unprepared")
	}
	v, err := st.Version(BaseVersion)
	if err != nil {
		t.Fatal(err)
	}
	if v.v2vEA == nil || v.v2vLD == nil || v.v2vSD == nil || v.v2vWitness == nil {
		t.Fatal("Version() store left V2V statements unprepared")
	}
}
