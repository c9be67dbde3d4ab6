package ptldb

import (
	"fmt"
	"math/rand"
	"testing"

	"ptldb/internal/csa"
	"ptldb/internal/timetable"
)

// fusedBattery replays a fixed seeded battery of all ten statements — every
// query type, and the journey where the path tables exist — and returns one printable record per query, so
// two executors can be compared answer-by-answer. The vertex-to-vertex answers
// and the journeys are also checked against the CSA oracle.
func fusedBattery(t *testing.T, db *DB, tt *Network) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	n := tt.NumStops()
	span := int(tt.MaxTime() - tt.MinTime())
	randTime := func() Time { return tt.MinTime() + Time(rng.Intn(span+1)) }
	var out []string

	for i := 0; i < 40; i++ {
		s, g := StopID(rng.Intn(n)), StopID(rng.Intn(n))
		t0 := randTime()
		arr, okEA, err := db.EarliestArrival(s, g, t0)
		if err != nil {
			t.Fatalf("EA(%d,%d,%d): %v", s, g, t0, err)
		}
		out = append(out, fmt.Sprintf("EA %d %d %d -> %d %v", s, g, t0, arr, okEA))

		dep, okLD, err := db.LatestDeparture(s, g, t0)
		if err != nil {
			t.Fatalf("LD(%d,%d,%d): %v", s, g, t0, err)
		}
		out = append(out, fmt.Sprintf("LD %d %d %d -> %d %v", s, g, t0, dep, okLD))

		t1 := t0 + Time(rng.Intn(span+1))
		dur, okSD, err := db.ShortestDuration(s, g, t0, t1)
		if err != nil {
			t.Fatalf("SD(%d,%d,%d,%d): %v", s, g, t0, t1, err)
		}
		out = append(out, fmt.Sprintf("SD %d %d %d %d -> %d %v", s, g, t0, t1, dur, okSD))

		if s == g {
			continue // the dummy-tuple convention, not the oracle's
		}
		wantEA, wantLD, wantSD := csa.EarliestArrival(tt, s, g, t0), csa.LatestDeparture(tt, s, g, t0), csa.ShortestDuration(tt, s, g, t0, t1)
		type check struct {
			name      string
			got, want Time
			ok, found bool
		}
		checks := []check{
			{"EA", arr, wantEA, okEA, wantEA < timetable.Infinity},
			{"LD", dep, wantLD, okLD, wantLD > timetable.NegInfinity},
			{"SD", dur, wantSD, okSD, wantSD < timetable.Infinity},
		}
		if db.Store().HasPathTables() {
			j, ok, err := db.JourneyFromDB(s, g, t0)
			if err != nil {
				t.Fatalf("Journey(%d,%d,%d): %v", s, g, t0, err)
			}
			out = append(out, fmt.Sprintf("Journey %d %d %d -> %+v %v", s, g, t0, j, ok))
			checks = append(checks, check{"Journey", j.Arr, wantEA, ok, wantEA < timetable.Infinity})
		}
		for _, c := range checks {
			if c.ok != c.found || (c.ok && c.got != c.want) {
				t.Errorf("%s %d %d %d %d: %d %v, the oracle has %d %v", c.name, s, g, t0, t1, c.got, c.ok, c.want, c.found)
			}
		}
	}

	for i := 0; i < 15; i++ {
		q := StopID(rng.Intn(n))
		t0 := randTime()
		k := 1 + rng.Intn(4)
		for _, m := range []struct {
			name string
			fn   func() ([]Result, error)
		}{
			{"EAKNNNaive", func() ([]Result, error) { return db.EAKNNNaive("poi", q, t0, k) }},
			{"LDKNNNaive", func() ([]Result, error) { return db.LDKNNNaive("poi", q, t0, k) }},
			{"EAKNN", func() ([]Result, error) { return db.EAKNN("poi", q, t0, k) }},
			{"LDKNN", func() ([]Result, error) { return db.LDKNN("poi", q, t0, k) }},
			{"EAOTM", func() ([]Result, error) { return db.EAOTM("poi", q, t0) }},
			{"LDOTM", func() ([]Result, error) { return db.LDOTM("poi", q, t0) }},
		} {
			res, err := m.fn()
			if err != nil {
				t.Fatalf("%s(%d,%d,%d): %v", m.name, q, t0, k, err)
			}
			out = append(out, fmt.Sprintf("%s %d %d %d -> %v", m.name, q, t0, k, res))
		}
	}
	return out
}

// TestFusedMatchesGeneralExecutor builds one database, runs the battery on
// the production handle, reopens the same directory on the reference executor
// (OpenReference), reruns the identical battery, and requires every answer to
// match. The FusedStats counters prove that each handle ran its own executor
// and no other.
func TestFusedMatchesGeneralExecutor(t *testing.T) {
	tt, err := GenerateCity("Austin", 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	fdb, err := Create(dir, tt, Config{Device: "ram"})
	if err != nil {
		t.Fatal(err)
	}
	n := tt.NumStops()
	targets := []StopID{StopID(1 % n), StopID(2 % n), StopID(5 % n), StopID(n - 1)}
	if err := fdb.AddTargetSet("poi", targets, 4); err != nil {
		fdb.Close()
		t.Fatal(err)
	}
	if err := fdb.BuildPathTables(tt); err != nil {
		fdb.Close()
		t.Fatal(err)
	}
	fused := fusedBattery(t, fdb, tt)
	if runs, general := fdb.Store().DB.FusedStats(); runs == 0 || general != 0 {
		t.Errorf("production handle: %d fused runs, %d general runs; want > 0 and 0", runs, general)
	}
	if err := fdb.Close(); err != nil {
		t.Fatal(err)
	}

	gdb, err := OpenReference(dir, Config{Device: "ram"})
	if err != nil {
		t.Fatal(err)
	}
	defer gdb.Close()
	general := fusedBattery(t, gdb, tt)
	if runs, generalRuns := gdb.Store().DB.FusedStats(); runs != 0 || generalRuns == 0 {
		t.Errorf("reference handle: %d fused runs, %d general runs; want 0 and > 0", runs, generalRuns)
	}

	if len(fused) != len(general) {
		t.Fatalf("battery sizes differ: %d vs %d", len(fused), len(general))
	}
	for i := range fused {
		if fused[i] != general[i] {
			t.Errorf("answer %d differs:\n  fused:   %s\n  general: %s", i, fused[i], general[i])
		}
	}
}
