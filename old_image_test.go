package ptldb

// old_image_test.go: a directory built before the label tables declared
// their run order differs from one built now only in catalog.json. The
// kernels search the runs without checking them, so such a directory is
// refused at Open — naming the table and the remedy, every time, with nothing
// left open behind the error — like every other old image.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ptldb/internal/sqldb"
	"ptldb/internal/timetable"
)

func TestUndeclaredImageFailsClosed(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir, timetable.PaperExample(), Config{Device: "ram"})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Take the declaration out of the catalog: what is left is, byte for
	// byte, the catalog a build from before it wrote.
	path := filepath.Join(dir, "catalog.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var defs []sqldb.TableDef
	if err := json.Unmarshal(data, &defs); err != nil {
		t.Fatal(err)
	}
	for i := range defs {
		defs[i].RunOrder = nil
	}
	if data, err = json.MarshalIndent(defs, "", "  "); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "run_order") {
		t.Fatal("an undeclared table still writes the catalog field")
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	fds := func() int {
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd to count descriptors: %v", err)
		}
		return len(entries)
	}
	before := fds()
	for attempt := 1; attempt <= 2; attempt++ {
		db, err := Open(dir, Config{Device: "ram"})
		if err == nil {
			db.Close()
			t.Fatalf("attempt %d: an image without run_order opened", attempt)
		}
		for _, frag := range []string{"lout", "run order", "rebuild"} {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("attempt %d: error lacks %q: %v", attempt, frag, err)
			}
		}
	}
	if after := fds(); after != before {
		t.Errorf("%d descriptors open after two refused opens, %d before", after, before)
	}
}
