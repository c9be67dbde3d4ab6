package ptldb

// old_image_test.go: a directory built before the label tables declared
// their run order, before the target-set tables declared the bound of their
// target ids, before the EA condensed tables declared the floor of their
// arrivals, or before the EA one-to-many table declared its target count,
// differs from one built now only in catalog.json. The kernels search the runs
// without checking them, index an array by the ids and stop an EA sweep by the
// floor and the count, so such a directory is refused at Open — naming the
// table and the remedy, every time, with nothing left open behind the error —
// like every other old image.

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
	if err := db.AddTargetSet("poi", []StopID{1, 4, 6}, 2); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "catalog.json")
	built, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fds := func() int {
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd to count descriptors: %v", err)
		}
		return len(entries)
	}

	// Take one declaration out of the catalog: what is left is, byte for
	// byte, the catalog a build from before it wrote.
	for _, tc := range []struct {
		key    string
		remove func(*sqldb.TableDef)
		want   []string
	}{
		{"run_order", func(d *sqldb.TableDef) { d.RunOrder = nil }, []string{"lout", "run order", "rebuild"}},
		{"target_ids", func(d *sqldb.TableDef) { d.TargetIDs = nil }, []string{"_poi", "target ids", "rebuild"}},
		{"floor", func(d *sqldb.TableDef) { d.Floor = nil }, []string{"_ea_poi", "floor", "rebuild"}},
		{"count", func(d *sqldb.TableDef) {
			if d.TargetIDs != nil {
				d.TargetIDs.Count = 0
			}
		}, []string{"otm_ea_poi", "target count", "rebuild"}},
	} {
		if !strings.Contains(string(built), tc.key) {
			t.Fatalf("the built catalog does not declare %s:\n%s", tc.key, built)
		}
		var defs []sqldb.TableDef
		if err := json.Unmarshal(built, &defs); err != nil {
			t.Fatal(err)
		}
		for i := range defs {
			tc.remove(&defs[i])
		}
		data, err := json.MarshalIndent(defs, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(data), tc.key) {
			t.Fatalf("an undeclared table still writes the catalog field %s", tc.key)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		before := fds()
		for attempt := 1; attempt <= 2; attempt++ {
			db, err := Open(dir, Config{Device: "ram"})
			if err == nil {
				db.Close()
				t.Fatalf("attempt %d: an image without %s opened", attempt, tc.key)
			}
			for _, frag := range tc.want {
				if !strings.Contains(err.Error(), frag) {
					t.Errorf("attempt %d: without %s: error lacks %q: %v", attempt, tc.key, frag, err)
				}
			}
		}
		if after := fds(); after != before {
			t.Errorf("without %s: %d descriptors open after two refused opens, %d before", tc.key, after, before)
		}
	}

	// The catalog as built opens.
	if err := os.WriteFile(path, built, 0o644); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir, Config{Device: "ram"}); err != nil {
		t.Fatal(err)
	}
	db.Close()
}
