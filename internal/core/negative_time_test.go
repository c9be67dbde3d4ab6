package core

import (
	"testing"

	"ptldb/internal/sqldb"
	"ptldb/internal/sqldb/storage"
	"ptldb/internal/timetable"
	"ptldb/internal/ttl"
)

// negativeLabels hand-builds a tiny TTL index whose tuples straddle t = 0.
// The timetable.Builder rejects negative departures, but nothing stops a
// caller from loading labels computed against a different epoch (e.g. a
// service day anchored at noon), so the query layer must bucket negative
// timestamps correctly.
//
// Stop 0 is the hub; stop 1 is the query source; stop 2 is the target.
// Out-label of 1 (journeys to the hub) and in-label of 2 (journeys from the
// hub) are chosen so that for t in (-3600, 0) the only valid LD journey is
// the early one: depart -7200, reach the hub at -7000, leave the hub at
// -6900, arrive -6500. The later hub connection arrives at -50 — inside
// hour bucket -1 but after t = -100 — so any bucketing that rounds t toward
// zero wrongly accepts it and reports departure -600.
func negativeLabels() *ttl.Labels {
	l := &ttl.Labels{
		In:    make([][]ttl.Tuple, 3),
		Out:   make([][]ttl.Tuple, 3),
		Ranks: []int32{0, 1, 2},
	}
	l.Out[1] = []ttl.Tuple{
		{Hub: 0, Dep: -7200, Arr: -7000, Pivot: timetable.NoStop, Trip: 1},
		{Hub: 0, Dep: -600, Arr: -550, Pivot: timetable.NoStop, Trip: 2},
	}
	l.In[2] = []ttl.Tuple{
		{Hub: 0, Dep: -6900, Arr: -6500, Pivot: timetable.NoStop, Trip: 3},
		{Hub: 0, Dep: -400, Arr: -50, Pivot: timetable.NoStop, Trip: 4},
	}
	return l.Augment()
}

// negativeStore builds the hand-made network on a production handle, or on
// the reference executor, and at the end of the test checks that the handle
// ran every query on its own executor only.
func negativeStore(t *testing.T, reference bool) (*Store, *ttl.Labels) {
	t.Helper()
	labels := negativeLabels()
	db, err := sqldb.Open(t.TempDir(), sqldb.Options{
		Device: storage.RAM, PoolPages: 1024, ReferenceExec: reference,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ex := &db.Registry().Exec
		fused, general := ex.FusedRuns.Load(), ex.GeneralRuns.Load()
		if (reference && fused != 0) || (!reference && general != 0) || fused+general == 0 {
			t.Errorf("reference executor %v: %d fused runs, %d general runs", reference, fused, general)
		}
		db.Close()
	})
	return writeAndOpen(t, db, labels, BuildOptions{}, addSet("poi", []timetable.StopID{2}, 2)), labels
}

// TestKNNNegativeTimeStraddle is the regression test for the Hour()-bucket
// truncation bug: a kNN query whose correct answer straddles the t = 0
// bucket boundary. With truncating division, LD-kNN(1, t=-100) probes hour
// bucket 0 instead of -1 and reports departure -600 (a journey that arrives
// at -50, after t); floor division reports the correct -7200.
func TestKNNNegativeTimeStraddle(t *testing.T) {
	for _, mode := range []struct {
		name      string
		reference bool
	}{{"fused", false}, {"general", true}} {
		t.Run(mode.name, func(t *testing.T) {
			st, _ := negativeStore(t, mode.reference)

			got, err := st.LDKNN("poi", 1, -100, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || got[0].Stop != 2 || got[0].When != -7200 {
				t.Errorf("LD-kNN(1, t=-100, k=1) = %v, want [(2, -7200)]", got)
			}
			gotOTM, err := st.LDOTM("poi", 1, -100)
			if err != nil {
				t.Fatal(err)
			}
			if len(gotOTM) != 1 || gotOTM[0].Stop != 2 || gotOTM[0].When != -7200 {
				t.Errorf("LD-OTM(1, t=-100) = %v, want [(2, -7200)]", gotOTM)
			}
		})
	}
}

// TestNegativeTimeSweep checks every query code against the label oracles
// across timestamps on both sides of every bucket boundary the hand-built
// index can hit, on both execution paths.
func TestNegativeTimeSweep(t *testing.T) {
	sweep := []timetable.Time{
		-7300, -7201, -7200, -7001, -7000, -6501, -6500, -3601, -3600,
		-601, -600, -101, -100, -51, -50, -1, 0, 1, 3599, 3600,
	}
	for _, mode := range []struct {
		name      string
		reference bool
	}{{"fused", false}, {"general", true}} {
		t.Run(mode.name, func(t *testing.T) {
			st, labels := negativeStore(t, mode.reference)
			for _, tq := range sweep {
				// Vertex-to-vertex EA and LD.
				wantEA := labels.EarliestArrival(1, 2, tq)
				gotEA, okEA, err := st.EarliestArrival(1, 2, tq)
				if err != nil {
					t.Fatal(err)
				}
				if okEA != (wantEA < timetable.Infinity) || (okEA && gotEA != wantEA) {
					t.Errorf("EA(1,2,%v) = %v,%v want %v", tq, gotEA, okEA, wantEA)
				}
				wantLD := labels.LatestDeparture(1, 2, tq)
				gotLD, okLD, err := st.LatestDeparture(1, 2, tq)
				if err != nil {
					t.Fatal(err)
				}
				if okLD != (wantLD > timetable.NegInfinity) || (okLD && gotLD != wantLD) {
					t.Errorf("LD(1,2,%v) = %v,%v want %v", tq, gotLD, okLD, wantLD)
				}

				// kNN (condensed and naive) and one-to-many, both directions.
				checkOne := func(desc string, got []Result, err error, want timetable.Time, reachable bool) {
					t.Helper()
					if err != nil {
						t.Fatal(err)
					}
					if !reachable {
						if len(got) != 0 {
							t.Errorf("%s at t=%v = %v, want empty", desc, tq, got)
						}
						return
					}
					if len(got) != 1 || got[0].Stop != 2 || got[0].When != want {
						t.Errorf("%s at t=%v = %v, want [(2, %v)]", desc, tq, got, want)
					}
				}
				eaK, err := st.EAKNN("poi", 1, tq, 1)
				checkOne("EA-kNN", eaK, err, wantEA, wantEA < timetable.Infinity)
				eaN, err := st.EAKNNNaive("poi", 1, tq, 1)
				checkOne("EA-kNN-naive", eaN, err, wantEA, wantEA < timetable.Infinity)
				eaO, err := st.EAOTM("poi", 1, tq)
				checkOne("EA-OTM", eaO, err, wantEA, wantEA < timetable.Infinity)
				ldK, err := st.LDKNN("poi", 1, tq, 1)
				checkOne("LD-kNN", ldK, err, wantLD, wantLD > timetable.NegInfinity)
				ldN, err := st.LDKNNNaive("poi", 1, tq, 1)
				checkOne("LD-kNN-naive", ldN, err, wantLD, wantLD > timetable.NegInfinity)
				ldO, err := st.LDOTM("poi", 1, tq)
				checkOne("LD-OTM", ldO, err, wantLD, wantLD > timetable.NegInfinity)
			}
		})
	}
}
