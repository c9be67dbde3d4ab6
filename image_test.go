package ptldb

// image_test.go: a database directory is one file, the image, whose segments
// define their own tables. A writer leaves exactly that file, and a handle
// keeps answering from the image it opened while the directory writers
// replace that image on disk.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
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

// TestWriterLeavesOnlyImage: Create, Close and AddTargetSet leave the image,
// nothing else — no temporary file, no file per table — and the image holds
// one segment per table.
func TestWriterLeavesOnlyImage(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir, timetable.PaperExample(), Config{Device: "ram"})
	if err != nil {
		t.Fatal(err)
	}
	requireOnlyImage(t, dir)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	requireOnlyImage(t, dir)
	if err := AddTargetSet(dir, "base", "poi", []StopID{4, 6}, 2, Config{Device: "ram"}); err != nil {
		t.Fatal(err)
	}
	requireOnlyImage(t, dir)
	if n := len(imageSegments(t, dir)); n != 9 {
		t.Errorf("the image holds %d segments; want lin, lout, stops, ptldb_meta and the set's five", n)
	}
}

// TestHandleSurvivesImageReplace: a handle — the reader — opened on a
// directory holding the target set "a" keeps answering from the image it
// opened while the directory writers replace that image with one that adds
// the set "b" and the version "weekend". Two goroutines loop the reader's
// kNN on "a", its TargetSets and Versions, and, with the pool dropped so
// every answer is read again, its EA; every answer must equal the reader's
// answer from before the writers — which is CSA's, a self-query's aside — and
// the sets and versions must not change. The test is clean under -race. A
// handle opened after the writers answers the new set and the new version as
// CSA does.
func TestHandleSurvivesImageReplace(t *testing.T) {
	tt, err := GenerateCity("Austin", 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	weekend, err := GenerateCity("Austin", 0.02, 4)
	if err != nil {
		t.Fatal(err)
	}
	if weekend.NumStops() != tt.NumStops() {
		t.Fatalf("the versions have %d and %d stops", tt.NumStops(), weekend.NumStops())
	}
	n := tt.NumStops()
	setA, setB := []StopID{1, 3, 5, 8, 13, 21}, []StopID{2, 4, 6, 10, 14}
	dir := t.TempDir()
	cfg := Config{Device: "ram"}
	if err := createAndWrite(t, dir, tt, cfg, func(dir string) error {
		return AddTargetSet(dir, "base", "a", setA, 3, cfg)
	}).Close(); err != nil {
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

	// The reader's answers before the writers, checked against CSA.
	type eaQuery struct {
		s, g StopID
		when Time
	}
	var eas []eaQuery
	var eaWant []string
	for i := 0; i < 40; i++ {
		q := eaQuery{StopID(i * 7 % n), StopID((i*13 + 1) % n), tt.MinTime() + Time(i)*tt.Span()/40}
		got, ok, err := reader.EarliestArrival(q.s, q.g, q.when)
		if err != nil {
			t.Fatal(err)
		}
		if want := csa.EarliestArrival(tt, q.s, q.g, q.when); q.s != q.g && (ok != (want != timetable.Infinity) || (ok && got != want)) {
			t.Errorf("EA(%d, %d, %d) = %d, %v; the oracle has %d", q.s, q.g, q.when, got, ok, want)
		}
		eas, eaWant = append(eas, q), append(eaWant, fmt.Sprint(got, ok))
	}
	// A kNN from a target answers by its dummy tuples, not CSA's t (see
	// EarliestArrival), so the sources are stops of neither set.
	var knnFrom []StopID
	for i := 0; len(knnFrom) < 10; i++ {
		if v := StopID(i * 3 % n); !slices.Contains(setA, v) && !slices.Contains(setB, v) {
			knnFrom = append(knnFrom, v)
		}
	}
	knnAt := func(i int) (StopID, Time) { return knnFrom[i], tt.MinTime() + Time(i)*tt.Span()/10 }
	var knnWant []string
	for i := 0; i < 10; i++ {
		q, when := knnAt(i)
		got, err := reader.EAKNN("a", q, when, 3)
		if err != nil {
			t.Fatal(err)
		}
		checkNeighbors(t, "EA kNN on a", got, csa.EarliestArrivalKNN(tt, q, setA, when, 3))
		knnWant = append(knnWant, fmt.Sprint(got))
	}
	sets, versions := fmt.Sprint(reader.TargetSets()), fmt.Sprint(reader.Versions())

	// Two goroutines query the reader until the writers are done.
	stop := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				if got := fmt.Sprint(reader.TargetSets()); got != sets {
					errs <- fmt.Errorf("TargetSets = %s while the writers ran; before them %s", got, sets)
					return
				}
				if got := fmt.Sprint(reader.Versions()); got != versions {
					errs <- fmt.Errorf("Versions = %s while the writers ran; before them %s", got, versions)
					return
				}
				q, when := knnAt((i + g) % 10)
				got, err := reader.EAKNN("a", q, when, 3)
				if err != nil {
					errs <- err
					return
				}
				if fmt.Sprint(got) != knnWant[(i+g)%10] {
					errs <- fmt.Errorf("EA kNN(%d, %d) on a = %v while the writers ran; before them %s", q, when, got, knnWant[(i+g)%10])
					return
				}
				if err := reader.DropCaches(); err != nil {
					errs <- err
					return
				}
				e := eas[(i*3+g)%len(eas)]
				arr, ok, err := reader.EarliestArrival(e.s, e.g, e.when)
				if err != nil {
					errs <- err
					return
				}
				if got, want := fmt.Sprint(arr, ok), eaWant[(i*3+g)%len(eas)]; got != want {
					errs <- fmt.Errorf("EA(%d, %d, %d) = %s while the writers ran; before them %s", e.s, e.g, e.when, got, want)
					return
				}
			}
		}(g)
	}
	werr := AddTargetSet(dir, "base", "b", setB, 3, cfg)
	if werr == nil {
		werr = AddVersion(dir, "weekend", weekend, cfg)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if werr != nil {
		t.Fatal(werr)
	}

	after, err := os.Stat(filepath.Join(dir, sqldb.ImageName))
	if err != nil {
		t.Fatal(err)
	}
	if os.SameFile(before, after) {
		t.Fatal("the writers did not replace the image")
	}
	requireOnlyImage(t, dir)
	for i, e := range eas {
		if err := reader.DropCaches(); err != nil {
			t.Fatal(err)
		}
		arr, ok, err := reader.EarliestArrival(e.s, e.g, e.when)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(arr, ok); got != eaWant[i] {
			t.Errorf("EA(%d, %d, %d) on the replaced image = %s; before the writers %s", e.s, e.g, e.when, got, eaWant[i])
		}
	}
	if _, err := reader.EAKNN("b", 0, tt.MinTime(), 3); !IsInvalidArgument(err) {
		t.Errorf("the reader answers on the set added after it opened: %v", err)
	}

	fresh, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, ok := fresh.TargetSets()["b"]; !ok || !slices.Contains(fresh.Versions(), "weekend") {
		t.Fatalf("a handle opened after the writers has the sets %v and the versions %v", fresh.TargetSets(), fresh.Versions())
	}
	for i := 0; i < 10; i++ {
		q, when := knnAt(i)
		for set, targets := range map[string][]StopID{"a": setA, "b": setB} {
			got, err := fresh.EAKNN(set, q, when, 3)
			if err != nil {
				t.Fatal(err)
			}
			checkNeighbors(t, "fresh handle EA kNN on "+set, got, csa.EarliestArrivalKNN(tt, q, targets, when, 3))
		}
	}
	we, err := fresh.Version("weekend")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range eas {
		if e.s == e.g {
			continue // a self-query answers by the dummy tuples, not CSA's t
		}
		got, ok, err := we.EarliestArrival(e.s, e.g, e.when)
		if err != nil {
			t.Fatal(err)
		}
		if want := csa.EarliestArrival(weekend, e.s, e.g, e.when); ok != (want != timetable.Infinity) || (ok && got != want) {
			t.Errorf("weekend EA(%d, %d, %d) = %d, %v; the oracle has %d", e.s, e.g, e.when, got, ok, want)
		}
	}
}
