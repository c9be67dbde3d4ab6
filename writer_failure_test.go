package ptldb

// writer_failure_test.go: a writer call that fails leaves the directory as
// it was. Its tables and the meta row that names them are one batch, entered
// only once every table of it is written.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ptldb/internal/csa"
	"ptldb/internal/sqldb"
	"ptldb/internal/sqldb/storage"
	"ptldb/internal/timetable"
)

// TestFailedWriterLeavesDirectory makes the image a directory writer writes
// unwritable — a directory stands at image.seg.tmp — and requires the call to
// fail with that path named, the directory to hold the image alone once the
// obstacle is gone and to open again and answer what CSA answers, and a retry
// of the same call to succeed and a handle opened after it to answer what CSA
// answers.
func TestFailedWriterLeavesDirectory(t *testing.T) {
	tt, err := GenerateCity("Austin", 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	n := tt.NumStops()
	targets := []StopID{1, 3, 5, 8, 13, 21}
	// eaMatchesCSA checks EA on h, a handle of tt's timetable, against CSA
	// for a spread of stop pairs and times.
	eaMatchesCSA := func(t *testing.T, what string, h *DB) {
		t.Helper()
		for i := 0; i < 20; i++ {
			s, g := StopID(i*7%n), StopID((i*13+2)%n)
			if s == g {
				continue // a self-query is not CSA's t (EarliestArrival's doc)
			}
			when := tt.MinTime() + Time(i)*tt.Span()/20
			got, ok, err := h.EarliestArrival(s, g, when)
			if err != nil {
				t.Fatal(err)
			}
			if want := csa.EarliestArrival(tt, s, g, when); ok != (want != timetable.Infinity) || (ok && got != want) {
				t.Errorf("%s: EA(%d, %d, %d) = %d, %v; the oracle has %d", what, s, g, when, got, ok, want)
			}
		}
	}
	blocked := sqldb.ImageName + ".tmp"
	cases := []struct {
		call  string
		write func(dir string) error
		check func(t *testing.T, db *DB)
	}{
		{"AddTargetSet",
			func(dir string) error { return AddTargetSet(dir, "base", "poi", targets, 3, Config{Device: "ram"}) },
			func(t *testing.T, db *DB) {
				q, when := StopID(0), tt.MinTime()+tt.Span()/3
				got, err := db.EAKNN("poi", q, when, 3)
				if err != nil {
					t.Fatal(err)
				}
				checkNeighbors(t, "EA kNN", got, csa.EarliestArrivalKNN(tt, q, targets, when, 3))
			}},
		{"AddVersion",
			func(dir string) error { return AddVersion(dir, "weekend", tt, Config{Device: "ram"}) },
			func(t *testing.T, db *DB) {
				we, err := db.Version("weekend")
				if err != nil {
					t.Fatal(err)
				}
				eaMatchesCSA(t, "weekend", we)
			}},
		{"BuildPathTables",
			addPaths(tt),
			func(t *testing.T, db *DB) {
				checked := 0
				for s := 0; s < n && checked < 10; s++ {
					g := (s*17 + 5) % n
					if s == g {
						continue
					}
					j, ok, err := db.JourneyFromDB(StopID(s), StopID(g), tt.MinTime())
					if err != nil {
						t.Fatal(err)
					}
					want := csa.EarliestArrival(tt, StopID(s), StopID(g), tt.MinTime())
					if ok != (want != timetable.Infinity) || (ok && j.Arr != want) {
						t.Errorf("journey %d -> %d arrives %d, %v; the oracle has %d", s, g, j.Arr, ok, want)
					}
					if ok {
						checked++
					}
				}
				if checked == 0 {
					t.Error("no journey checked")
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.call, func(t *testing.T) {
			dir := t.TempDir()
			if err := createAndWrite(t, dir, tt, Config{Device: "ram"}).Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.Mkdir(filepath.Join(dir, blocked), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := tc.write(dir); err == nil || !strings.Contains(err.Error(), blocked) {
				t.Fatalf("%s with %s unwritable: %v; want the error naming it", tc.call, blocked, err)
			}
			if err := os.Remove(filepath.Join(dir, blocked)); err != nil {
				t.Fatal(err)
			}
			requireOnlyImage(t, dir)

			db, err := Open(dir, Config{Device: "ram"})
			if err != nil {
				t.Fatalf("Open after the failed %s: %v", tc.call, err)
			}
			eaMatchesCSA(t, "after the failed "+tc.call, db)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if err := tc.write(dir); err != nil {
				t.Fatalf("retrying %s: %v", tc.call, err)
			}
			requireOnlyImage(t, dir)
			if db, err = Open(dir, Config{Device: "ram"}); err != nil {
				t.Fatalf("Open after the retried %s: %v", tc.call, err)
			}
			defer db.Close()
			tc.check(t, db)
			eaMatchesCSA(t, "after the retried "+tc.call, db)
		})
	}
}

// TestCreateRefusesBuiltDirectory: Create into a directory that already holds
// a database fails and leaves every file of it as it was, so the directory
// keeps answering for its own timetable — its path tables included, which a
// build over it would otherwise leave beside another timetable's labels.
func TestCreateRefusesBuiltDirectory(t *testing.T) {
	tt, err := GenerateCity("Austin", 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	other, err := GenerateCity("Austin", 0.02, 4)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := createAndWrite(t, dir, tt, Config{Device: "ram"}, addPaths(tt)).Close(); err != nil {
		t.Fatal(err)
	}
	snapshot := func() map[string]string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string]string{}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = string(b)
		}
		return files
	}
	before := snapshot()

	if db, err := Create(dir, other, Config{Device: "ram"}); err == nil || !strings.Contains(err.Error(), "already holds") {
		if db != nil {
			db.Close()
		}
		t.Fatalf("a second Create into the built directory: %v; want a refusal", err)
	}
	after := snapshot()
	if len(after) != len(before) {
		t.Errorf("the refused Create left files %d, want %d", len(after), len(before))
	}
	for name, b := range before {
		if after[name] != b {
			t.Errorf("the refused Create changed %s", name)
		}
	}

	db, err := Open(dir, Config{Device: "ram"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	n, checked := tt.NumStops(), 0
	for s := 0; s < n && checked < 10; s++ {
		g := (s*17 + 5) % n
		if s == g {
			continue
		}
		j, ok, err := db.JourneyFromDB(StopID(s), StopID(g), tt.MinTime())
		if err != nil {
			t.Fatal(err)
		}
		want := csa.EarliestArrival(tt, StopID(s), StopID(g), tt.MinTime())
		if ok != (want != timetable.Infinity) || (ok && j.Arr != want) {
			t.Errorf("journey %d -> %d arrives %d, %v; the oracle has %d", s, g, j.Arr, ok, want)
		}
		if ok {
			checked++
		}
	}
	if checked == 0 {
		t.Error("no journey checked")
	}
}

// TestOverlongDefinitionRefused: a table's definition lives in the header
// page of its segment, so a target set whose name makes its tables'
// definitions longer than that page is refused by Load — the error names the
// table, nothing is written, the directory stays the image it was and
// a handle opened on it has the sets it had.
func TestOverlongDefinitionRefused(t *testing.T) {
	dir := t.TempDir()
	if err := createAndWrite(t, dir, timetable.PaperExample(), Config{Device: "ram"}).Close(); err != nil {
		t.Fatal(err)
	}
	built, err := os.ReadFile(filepath.Join(dir, sqldb.ImageName))
	if err != nil {
		t.Fatal(err)
	}
	name := strings.Repeat("p", storage.PageSize)
	err = AddTargetSet(dir, "base", name, []StopID{4, 6}, 2, Config{Device: "ram"})
	if err == nil || !strings.Contains(err.Error(), "overflow the header page") || !strings.Contains(err.Error(), "_"+name+`"`) {
		t.Fatalf("AddTargetSet with a %d-byte name: %v; want the header overflow, naming the table", len(name), err)
	}
	requireOnlyImage(t, dir)
	if now, err := os.ReadFile(filepath.Join(dir, sqldb.ImageName)); err != nil || !bytes.Equal(now, built) {
		t.Errorf("the refused set changed the image (%v)", err)
	}
	db, err := Open(dir, Config{Device: "ram"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if sets := db.TargetSets(); len(sets) != 0 {
		t.Errorf("the refused set left the sets %v", sets)
	}
	if err := AddTargetSet(dir, "base", "poi", []StopID{4, 6}, 2, Config{Device: "ram"}); err != nil {
		t.Fatalf("a set of a short name after the refused one: %v", err)
	}
}
