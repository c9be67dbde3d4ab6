package ptldb

// image_test.go: a database directory is one file, the image, whose segments
// define their own tables. A writer leaves exactly that file, and a handle
// keeps answering from the image it opened after another handle's Flush
// replaced that image on disk.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ptldb/internal/csa"
	"ptldb/internal/sqldb"
	"ptldb/internal/sqldb/storage"
	"ptldb/internal/timetable"
)

// imageSegment is one table's segment: its name and its byte range in the
// image.
type imageSegment struct {
	name     string
	off, end int
}

// imageSegments walks the image of dir front to back, as Open does, and
// returns each table's segment, named by the definition in its header.
func imageSegments(t *testing.T, dir string) []imageSegment {
	t.Helper()
	f, err := storage.OpenPagedFile(filepath.Join(dir, sqldb.ImageName), storage.RAM, new(storage.Clock))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pool := storage.NewPool(8)
	pool.Register(f)
	var segs []imageSegment
	for base := storage.PageID(0); base < f.NumPages(); {
		seg, _, err := storage.OpenSegment(f, base, pool, nil)
		if err != nil {
			t.Fatalf("segment at page %d: %v", base, err)
		}
		var def sqldb.TableDef
		if err := json.Unmarshal(seg.Meta(), &def); err != nil {
			t.Fatalf("segment at page %d: %v", base, err)
		}
		segs = append(segs, imageSegment{def.Name, int(base) * storage.PageSize, int(base+seg.Pages()) * storage.PageSize})
		base += seg.Pages()
	}
	return segs
}

// requireOnlyImage fails unless dir holds exactly the image.
func requireOnlyImage(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if strings.Join(names, " ") != sqldb.ImageName {
		t.Errorf("the database directory holds %v; want %s only", names, sqldb.ImageName)
	}
}

// TestWriterLeavesOnlyImage: Create, AddTargetSet and Close leave the image,
// nothing else — no loose segment, no temporary file — and the image holds
// one segment per table.
func TestWriterLeavesOnlyImage(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir, timetable.PaperExample(), Config{Device: "ram"})
	if err != nil {
		t.Fatal(err)
	}
	requireOnlyImage(t, dir)
	if err := db.AddTargetSet("poi", []StopID{4, 6}, 2); err != nil {
		db.Close()
		t.Fatal(err)
	}
	requireOnlyImage(t, dir)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	requireOnlyImage(t, dir)
	if n := len(imageSegments(t, dir)); n != 9 {
		t.Errorf("the image holds %d segments; want lin, lout, stops, ptldb_meta and the set's five", n)
	}
}

// TestHandleSurvivesImageReplace: a handle opened before another handle's
// Flush replaced the image keeps answering — from the image it opened, with
// the pool dropped so every answer is read again — what CSA answers, and a
// self-query what a fresh handle answers; the writer and the fresh handle
// answer the new target set.
func TestHandleSurvivesImageReplace(t *testing.T) {
	tt, err := GenerateCity("Austin", 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	db, err := Create(dir, tt, Config{Device: "ram"})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(filepath.Join(dir, sqldb.ImageName))
	if err != nil {
		t.Fatal(err)
	}
	reader, err := Open(dir, Config{Device: "ram", VectorCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	writer, err := Open(dir, Config{Device: "ram"})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	targets := []StopID{1, 3, 5, 8, 13, 21}
	if err := writer.AddTargetSet("poi", targets, 3); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(filepath.Join(dir, sqldb.ImageName))
	if err != nil {
		t.Fatal(err)
	}
	if os.SameFile(before, after) {
		t.Fatal("AddTargetSet did not replace the image")
	}
	requireOnlyImage(t, dir)
	fresh, err := Open(dir, Config{Device: "ram"})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()

	n := tt.NumStops()
	for i := 0; i < 40; i++ {
		s, g := StopID(i*7%n), StopID((i*13+1)%n)
		when := tt.MinTime() + Time(i)*tt.Span()/40
		if err := reader.DropCaches(); err != nil {
			t.Fatal(err)
		}
		got, ok, err := reader.EarliestArrival(s, g, when)
		if err != nil {
			t.Fatal(err)
		}
		want, found := csa.EarliestArrival(tt, s, g, when), true
		if s == g {
			// A self-query answers by the dummy tuples, not CSA's t: the
			// fresh handle, on the new image, is the reference.
			want, found, err = fresh.EarliestArrival(s, g, when)
			if err != nil {
				t.Fatal(err)
			}
		} else {
			found = want != timetable.Infinity
		}
		if ok != found || (ok && got != want) {
			t.Errorf("EA(%d, %d, %d) on the replaced image = %d, %v; the reference has %d, %v", s, g, when, got, ok, want, found)
		}
	}
	q, when := StopID(0), tt.MinTime()+tt.Span()/3
	want := csa.EarliestArrivalKNN(tt, q, targets, when, 3)
	for name, h := range map[string]*DB{"writer": writer, "fresh handle": fresh} {
		got, err := h.EAKNN("poi", q, when, 3)
		if err != nil {
			t.Fatal(err)
		}
		checkNeighbors(t, name+" EA kNN", got, want)
	}
}
