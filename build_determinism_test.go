package ptldb

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
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
// resulting directories — segments and the catalog, nothing else — must be
// byte-identical, paths_* and the thrice-rewritten ptldb_meta included.
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
		db, err := Create(dir, tt, Config{Device: "ram", BuildWorkers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := db.AddTargetSet("poi", targets, 4); err != nil {
			t.Fatalf("workers=%d: AddTargetSet: %v", workers, err)
		}
		if err := db.AddVersion("weekend", tt2); err != nil {
			t.Fatalf("workers=%d: AddVersion: %v", workers, err)
		}
		if err := db.BuildPathTables(tt); err != nil {
			t.Fatalf("workers=%d: BuildPathTables: %v", workers, err)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("workers=%d: Close: %v", workers, err)
		}
		return dirImage(t, dir)
	}

	want := build(1)
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		t.Fatal("serial build produced no files")
	}
	for _, name := range names {
		if name != "catalog.json" && !strings.HasSuffix(name, ".seg") {
			t.Errorf("build produced %s; want segments and the catalog only", name)
		}
	}
	for _, table := range []string{"lout", "stops", "ptldb_meta", "knn_ea_poi", "lin__weekend", "paths_out", "paths_in"} {
		if len(want[table+".seg"]) == 0 {
			t.Errorf("build produced no %s.seg; the byte-compare is not covering it", table)
		}
	}
	for _, workers := range []int{1, 2, 7} {
		got := build(workers)
		if len(got) != len(want) {
			t.Errorf("workers=%d: %d files, serial build has %d", workers, len(got), len(want))
		}
		for _, name := range names {
			g, ok := got[name]
			if !ok {
				t.Errorf("workers=%d: file %s missing", workers, name)
				continue
			}
			if !bytes.Equal(g, want[name]) {
				t.Errorf("workers=%d: file %s differs from serial build (%d vs %d bytes)",
					workers, name, len(g), len(want[name]))
			}
		}
	}
}
