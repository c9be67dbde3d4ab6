package ptldb

import (
	"bytes"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"ptldb/internal/sqldb"
	"ptldb/internal/timetable"
)

// dirImage reads every file under dir into a name -> content map.
func dirImage(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out[rel] = data
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBuildWorkersDiskImageIdentical builds the same database twice serially
// and at several BuildWorkers values — exercising every parallel
// preprocessing path: the wave-parallel label construction, the pooled
// label/stops loads of Create, the six-table loads of AddTargetSet and the
// versioned loads of AddVersion — plus BuildPathTables, whose rows are
// produced in map iteration order and sorted before they are loaded. The
// resulting directories — the image, nothing else — must be
// byte-identical, every table's segment in the image included: paths_* and
// the thrice-rewritten ptldb_meta too.
func TestBuildWorkersDiskImageIdentical(t *testing.T) {
	tt, err := GenerateCity("Salt Lake City", 0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	tt2, err := GenerateCity("Salt Lake City", 0.02, 43)
	if err != nil {
		t.Fatal(err)
	}
	targets := []StopID{1, 3, 5, 7, 11, 13}

	build := func(workers int) map[string][]byte {
		dir := t.TempDir()
		cfg := Config{Device: "ram", BuildWorkers: workers}
		db, err := Create(dir, tt, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("workers=%d: Close: %v", workers, err)
		}
		if err := AddTargetSet(dir, "base", "poi", targets, 4, cfg); err != nil {
			t.Fatalf("workers=%d: AddTargetSet: %v", workers, err)
		}
		if err := AddVersion(dir, "weekend", tt2, cfg); err != nil {
			t.Fatalf("workers=%d: AddVersion: %v", workers, err)
		}
		if err := BuildPathTables(dir, "base", tt, cfg); err != nil {
			t.Fatalf("workers=%d: BuildPathTables: %v", workers, err)
		}
		requireOnlyImage(t, dir)
		img := dirImage(t, dir)
		for _, seg := range imageSegments(t, dir) {
			img[seg.name] = img[sqldb.ImageName][seg.off:seg.end]
		}
		return img
	}

	want := build(1)
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, table := range []string{"lout", "stops", "ptldb_meta", "knn_ea_poi", "lin__weekend", "paths_out", "paths_in"} {
		if len(want[table]) == 0 {
			t.Errorf("the image holds no segment of %s; the byte-compare is not covering it", table)
		}
	}
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0), 7} {
		got := build(workers)
		if len(got) != len(want) {
			t.Errorf("workers=%d: %d files and segments, serial build has %d", workers, len(got), len(want))
		}
		for _, name := range names {
			g, ok := got[name]
			if !ok {
				t.Errorf("workers=%d: %s missing", workers, name)
				continue
			}
			if !bytes.Equal(g, want[name]) {
				t.Errorf("workers=%d: %s differs from serial build (%d vs %d bytes)",
					workers, name, len(g), len(want[name]))
			}
		}
	}
}

// TestImagePinned pins the image of the paper's example network — Create,
// a target set and the path tables, so every builder of an array column
// (labels, the five target-set tables, paths) — by its length and an FNV-1a
// digest of its bytes. The segment codec writes an array element as a
// varint, which carries no width, so the in-memory type of an element does
// not reach the file: a change that moves a byte here changed the format,
// and one that does so on purpose updates both numbers and says why.
func TestImagePinned(t *testing.T) {
	const (
		wantBytes  = 270336
		wantDigest = 0xd921bc6fd36455de
	)
	tt := timetable.PaperExample()
	dir := t.TempDir()
	db := createAndWrite(t, dir, tt, Config{Device: "ram"}, addPOI([]StopID{4, 6}, 2), addPaths(tt))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(filepath.Join(dir, sqldb.ImageName))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(img)
	if len(img) != wantBytes || h.Sum64() != wantDigest {
		t.Errorf("image of the paper's example: %d bytes, digest %#x; want %d, %#x", len(img), h.Sum64(), wantBytes, uint64(wantDigest))
	}
}
