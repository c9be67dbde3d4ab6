package ptldb

import (
	"bytes"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ptldb/internal/csa"
	"ptldb/internal/sqldb"
	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/timetable"
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
	db := createAndWrite(t, dir, weekday, Config{Device: "ram"}, func(dir string) error {
		return AddVersion(dir, "weekend", weekend, Config{Device: "ram"})
	}, addPOI([]StopID{1, 2, 3}, 2))
	if got := db.Versions(); len(got) != 2 {
		t.Fatalf("Versions = %v", got)
	}
	we, err := db.Version("weekend")
	if err != nil {
		t.Fatal(err)
	}

	// Target sets are independent per version.
	if len(we.TargetSets()) != 0 {
		t.Error("weekend version sees the base target set")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := AddTargetSet(dir, "weekend", "poi", []StopID{1, 2, 3}, 2, Config{Device: "ram"}); err != nil {
		t.Fatal(err)
	}
	if err := AddTargetSet(dir, "holiday", "poi", []StopID{1, 2, 3}, 2, Config{Device: "ram"}); !IsInvalidArgument(err) {
		t.Errorf("a set of an unknown version: %v; want an invalid argument", err)
	}

	// Both versions and their sets are in the directory.
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
	if _, err := db2.EAKNN("poi", 0, weekday.MinTime(), 2); err != nil {
		t.Fatal(err)
	}
	if _, err := db2.Version("holiday"); err == nil {
		t.Error("unknown version accepted")
	}
}

// labelsDigest returns the label tuples of one side of a handle's version —
// table lout or lin plus the version's suffix — and an FNV-1a digest of its
// rows.
func labelsDigest(t *testing.T, db *DB, table string) (int, uint64) {
	t.Helper()
	tbl, ok := db.Store().DB.Table(table)
	if !ok {
		t.Fatalf("no table %s", table)
	}
	h, tuples := fnv.New64a(), 0
	err := tbl.Scan(func(r sqltypes.Row) error {
		tuples += len(r[1].A)
		h.Write(sqltypes.EncodeRow(nil, r))
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", table, err)
	}
	return tuples, h.Sum64()
}

// TestAddVersionHonoursOrdering: AddVersion labels a version under the
// Config's Ordering and Seed, as Create labels the base: a hub-usage
// database's weekend version holds exactly the labels a hub-usage Create of
// the weekend network holds — which the default ordering's differ from — and
// answers as CSA does. An unknown ordering fails AddVersion before any build
// and leaves the directory as it was.
func TestAddVersionHonoursOrdering(t *testing.T) {
	weekday, err := GenerateCity("Austin", 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	weekend, err := GenerateCity("Austin", 0.01, 2)
	if err != nil {
		t.Fatal(err)
	}
	hubUsage := Config{Device: "ram", Ordering: "hub-usage", Seed: 5}
	created := func(tt *Network, cfg Config) (string, *DB) {
		dir := t.TempDir()
		db, err := Create(dir, tt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return dir, db
	}
	dir, db := created(weekday, hubUsage)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	image := func() []byte {
		b, err := os.ReadFile(filepath.Join(dir, sqldb.ImageName))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	before := image()
	err = AddVersion(dir, "weekend", weekend, Config{Device: "ram", Ordering: "by-whim"})
	if err == nil || !strings.Contains(err.Error(), `unknown ordering "by-whim"`) {
		t.Fatalf("AddVersion under an unknown ordering = %v, want it named", err)
	}
	if !bytes.Equal(image(), before) {
		t.Fatal("a refused AddVersion changed the image")
	}
	if err := AddVersion(dir, "weekend", weekend, hubUsage); err != nil {
		t.Fatal(err)
	}
	db, err = Open(dir, hubUsage)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, want := created(weekend, hubUsage)
	defer want.Close()
	_, plain := created(weekend, Config{Device: "ram"})
	defer plain.Close()
	for _, side := range []string{"lout", "lin"} {
		n, d := labelsDigest(t, db, side+"__weekend")
		wn, wd := labelsDigest(t, want, side)
		if n != wn || d != wd {
			t.Errorf("%s of the weekend version: %d tuples, digest %#x; a hub-usage Create has %d, %#x", side, n, d, wn, wd)
		}
		if pn, pd := labelsDigest(t, plain, side); pn == wn && pd == wd {
			t.Errorf("%s: the default ordering builds the hub-usage labels too; the comparison tells nothing", side)
		}
	}
	we, err := db.Version("weekend")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for range 200 {
		s, g := StopID(rng.Intn(weekend.NumStops())), StopID(rng.Intn(weekend.NumStops()))
		when := weekend.MinTime() + Time(rng.Intn(int(weekend.MaxTime()-weekend.MinTime())+1))
		if s == g {
			continue // a self-query answers by the dummy tuples, not CSA's t
		}
		got, ok, err := we.EarliestArrival(s, g, when)
		if err != nil {
			t.Fatal(err)
		}
		if want := csa.EarliestArrival(weekend, s, g, when); ok != (want != timetable.Infinity) || (ok && got != want) {
			t.Errorf("weekend EA(%d, %d, %d) = %d, %v; the oracle has %d", s, g, when, got, ok, want)
		}
	}
}

// TestFacadePathTables covers the expanded-path extension through the public
// API and cross-checks against in-memory reconstruction.
func TestFacadePathTables(t *testing.T) {
	tt, err := GenerateCity("Denver", 0.008, 9)
	if err != nil {
		t.Fatal(err)
	}
	db := createAndWrite(t, t.TempDir(), tt, Config{Device: "ram"}, addPaths(tt))
	defer db.Close()
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

// TestOpenFailsClosedOnMissingLabelSegment: a database whose image lost
// lout's segment does not open — it used to open, grow an empty lout beside
// the real lin, and answer "no journey" to every query. The error names the table and the
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
	path := filepath.Join(dir, sqldb.ImageName)
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range imageSegments(t, dir) {
		if seg.name == "lout" {
			image = slices.Delete(image, seg.off, seg.end)
		}
	}
	if err := os.WriteFile(path, image, 0o644); err != nil {
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
			t.Fatalf("Open accepted a database without lout's segment; EA now answers %v, %v, %v (was %v)", got, ok, qerr, want)
		}
		for _, frag := range []string{`table "lout"`, "rebuild"} {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("error lacks %q: %v", frag, err)
			}
		}
		if after := listing(); after != before {
			t.Fatalf("the failed open changed the directory: %s, was %s", after, before)
		}
	}
}
