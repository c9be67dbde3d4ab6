package ptldb

// old_image_test.go: a directory built before the label tables declared
// their run order, before the target-set tables declared the bound of their
// target ids, before the EA condensed tables declared the floor of their
// arrivals, or before the EA one-to-many table declared its target count,
// differs from one built now only in catalog.json; one built before the EA
// and the LD naive query shared one table holds ea_knn_naive_<set> and
// ld_knn_naive_<set>, two copies of knn_naive_<set>. The kernels search the
// runs without checking them, index an array by the ids and stop an EA sweep
// by the floor and the count, so such a directory is refused at Open — naming
// the table and the remedy, every time, with nothing left open behind the
// error — like every other old image.

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
	// each takes one declaration out of every table of the catalog.
	each := func(remove func(*sqldb.TableDef)) func([]sqldb.TableDef) []sqldb.TableDef {
		return func(defs []sqldb.TableDef) []sqldb.TableDef {
			for i := range defs {
				remove(&defs[i])
			}
			return defs
		}
	}
	// twoNaive turns knn_naive_poi back into the two identical tables an older
	// build wrote, ea_knn_naive_poi and ld_knn_naive_poi, segments included:
	// the image holds the segments in the order of the catalog it returns.
	imagePath := filepath.Join(dir, sqldb.ImageName)
	builtImage, err := os.ReadFile(imagePath)
	if err != nil {
		t.Fatal(err)
	}
	segOf := map[string][]byte{}
	for _, seg := range imageSegments(t, dir) {
		segOf[seg.name] = builtImage[seg.off:seg.end]
	}
	twoNaive := func(defs []sqldb.TableDef) []sqldb.TableDef {
		segOf["ea_knn_naive_poi"], segOf["ld_knn_naive_poi"] = segOf["knn_naive_poi"], segOf["knn_naive_poi"]
		for i := range defs {
			if defs[i].Name == "knn_naive_poi" {
				ld := defs[i]
				defs[i].Name, ld.Name = "ea_knn_naive_poi", "ld_knn_naive_poi"
				defs = append(defs, ld)
				break
			}
		}
		var image []byte
		for _, def := range defs {
			image = append(image, segOf[def.Name]...)
		}
		if err := os.WriteFile(imagePath, image, 0o644); err != nil {
			t.Fatal(err)
		}
		return defs
	}

	// Edit the catalog as built into what a build from before one change
	// wrote, byte for byte, and take away the key that change introduced.
	for _, tc := range []struct {
		key  string
		edit func([]sqldb.TableDef) []sqldb.TableDef
		want []string
	}{
		{"run_order", each(func(d *sqldb.TableDef) { d.RunOrder = nil }), []string{"lout", "run order", "rebuild"}},
		{"target_ids", each(func(d *sqldb.TableDef) { d.TargetIDs = nil }), []string{"_poi", "target ids", "rebuild"}},
		{"floor", each(func(d *sqldb.TableDef) { d.Floor = nil }), []string{"_ea_poi", "floor", "rebuild"}},
		{"count", each(func(d *sqldb.TableDef) {
			if d.TargetIDs != nil {
				d.TargetIDs.Count = 0
			}
		}), []string{"otm_ea_poi", "target count", "rebuild"}},
		{`"knn_naive_poi"`, twoNaive, []string{`"knn_naive_poi"`, "rebuild"}},
	} {
		if !strings.Contains(string(built), tc.key) {
			t.Fatalf("the built catalog does not declare %s:\n%s", tc.key, built)
		}
		var defs []sqldb.TableDef
		if err := json.Unmarshal(built, &defs); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(tc.edit(defs), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(data), tc.key) {
			t.Fatalf("an older catalog still writes %s", tc.key)
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

	// The catalog and image as built open.
	if err := os.WriteFile(path, built, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(imagePath, builtImage, 0o644); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir, Config{Device: "ram"}); err != nil {
		t.Fatal(err)
	}
	db.Close()
}
