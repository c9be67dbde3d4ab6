package ptldb

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFacadeVersions covers the weekday/weekend multi-version workflow of
// the paper's Section 3.1 through the public API.
func TestFacadeVersions(t *testing.T) {
	weekday, err := GenerateCity("Austin", 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	weekend, err := GenerateCity("Austin", 0.01, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	db, err := Create(dir, weekday, Config{Device: "ram"})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddVersion("weekend", weekend); err != nil {
		t.Fatal(err)
	}
	if got := db.Versions(); len(got) != 2 {
		t.Fatalf("Versions = %v", got)
	}
	we, err := db.Version("weekend")
	if err != nil {
		t.Fatal(err)
	}

	// Target sets are independent per version.
	if err := db.AddTargetSet("poi", []StopID{1, 2, 3}, 2); err != nil {
		t.Fatal(err)
	}
	if len(we.TargetSets()) != 0 {
		t.Error("weekend version sees the base target set")
	}
	if err := we.AddTargetSet("poi", []StopID{1, 2, 3}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := we.EAKNN("poi", 0, weekend.MinTime(), 2); err != nil {
		t.Fatal(err)
	}

	// Both versions survive close/reopen.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Config{Device: "ram"})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	we2, err := db2.Version("weekend")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := we2.EAKNN("poi", 0, weekend.MinTime(), 2); err != nil {
		t.Fatal(err)
	}
	if _, err := db2.Version("holiday"); err == nil {
		t.Error("unknown version accepted")
	}
}

// TestFacadePathTables covers the expanded-path extension through the public
// API and cross-checks against in-memory reconstruction.
func TestFacadePathTables(t *testing.T) {
	tt, err := GenerateCity("Denver", 0.008, 9)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Create(t.TempDir(), tt, Config{Device: "ram"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.BuildPathTables(tt); err != nil {
		t.Fatal(err)
	}
	general := db.Snapshot().Exec.GeneralRuns
	checked := 0
	for s := 0; s < tt.NumStops() && checked < 25; s++ {
		g := (s*17 + 5) % tt.NumStops()
		if s == g {
			continue
		}
		dj, ok, err := db.JourneyFromDB(StopID(s), StopID(g), tt.MinTime())
		if err != nil {
			t.Fatal(err)
		}
		mem, okMem := EarliestArrivalJourney(tt, StopID(s), StopID(g), tt.MinTime())
		if ok != okMem {
			t.Fatalf("db journey ok=%v, memory ok=%v for %d->%d", ok, okMem, s, g)
		}
		if !ok {
			continue
		}
		if dj.Arr != mem.Legs[len(mem.Legs)-1].Arr {
			t.Fatalf("%d->%d: db arrives %v, memory %v", s, g, dj.Arr, mem.Legs[len(mem.Legs)-1].Arr)
		}
		checked++
	}
	if checked < 5 {
		t.Fatalf("only %d reachable pairs checked", checked)
	}
	if now := db.Snapshot().Exec.GeneralRuns; now != general {
		t.Errorf("journeys ran the general executor %d times, want 0", now-general)
	}
}

// TestOpenFailsClosedOnMissingLabelSegment: a database whose lout.seg is gone
// does not open — it used to open, grow an empty lout beside the real lin,
// and answer "no journey" to every query. The error names the table and the
// remedy, the failed open leaves the directory exactly as it found it, and a
// retry fails the same way.
func TestOpenFailsClosedOnMissingLabelSegment(t *testing.T) {
	tt, err := GenerateCity("Austin", 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	db, err := Create(dir, tt, Config{Device: "ram"})
	if err != nil {
		t.Fatal(err)
	}
	s, g := StopID(0), StopID(tt.NumStops()-1)
	want, ok, err := db.EarliestArrival(s, g, tt.MinTime())
	if err != nil || !ok {
		t.Fatalf("EA on the intact database = %v, %v, %v; the test needs a journey", want, ok, err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "lout.seg")); err != nil {
		t.Fatal(err)
	}
	listing := func() string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return strings.Join(names, " ")
	}
	before := listing()
	for attempt := 0; attempt < 2; attempt++ {
		db, err := Open(dir, Config{Device: "ram"})
		if err == nil {
			got, ok, qerr := db.EarliestArrival(s, g, tt.MinTime())
			db.Close()
			t.Fatalf("Open accepted a database without lout.seg; EA now answers %v, %v, %v (was %v)", got, ok, qerr, want)
		}
		for _, frag := range []string{`table "lout"`, "lout.seg", "rebuild"} {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("error lacks %q: %v", frag, err)
			}
		}
		if after := listing(); after != before {
			t.Fatalf("the failed open changed the directory: %s, was %s", after, before)
		}
	}
}
