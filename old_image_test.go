package ptldb

// old_image_test.go: a directory built before the label tables declared
// their run order, before the target-set tables declared the bound of their
// target ids, before the EA condensed tables declared the floor of their
// arrivals, or before the EA one-to-many table declared its target count,
// differs from one built now only in the definitions its segments' headers
// hold; one built before the EA and the LD naive query shared one table holds
// ea_knn_naive_<set> and ld_knn_naive_<set>, two copies of knn_naive_<set>.
// The kernels search the runs without checking them, index an array by the
// ids and stop an EA sweep by the floor and the count, so such a directory is
// refused at Open — naming the table and the remedy, every time, with nothing
// left open behind the error — like every other old image.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ptldb/internal/sqldb"
	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/sqldb/storage"
	"ptldb/internal/timetable"
)

func TestUndeclaredImageFailsClosed(t *testing.T) {
	dir := t.TempDir()
	if err := createAndWrite(t, dir, timetable.PaperExample(), Config{Device: "ram"}, addPOI([]StopID{1, 4, 6}, 2)).Close(); err != nil {
		t.Fatal(err)
	}
	built, err := os.ReadFile(filepath.Join(dir, sqldb.ImageName))
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
	// older builds into a new directory what a build from before one change
	// wrote: every table's own rows, loaded under the definitions edit makes
	// of its definition — none to drop the table, two to copy it.
	older := func(edit func(sqldb.TableDef) []sqldb.TableDef) string {
		src, err := sqldb.Open(dir, sqldb.Options{Device: storage.RAM})
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		old := t.TempDir()
		dst, err := sqldb.Open(old, sqldb.Options{Device: storage.RAM})
		if err != nil {
			t.Fatal(err)
		}
		var loads []sqldb.TableLoad
		for _, name := range src.Tables() {
			tbl, _ := src.Table(name)
			var rows []sqltypes.Row
			if err := tbl.Scan(func(r sqltypes.Row) error { rows = append(rows, r); return nil }); err != nil {
				t.Fatal(err)
			}
			for _, def := range edit(tbl.Def()) {
				loads = append(loads, sqldb.TableLoad{Def: def, Rows: func() ([]sqltypes.Row, error) { return rows, nil }})
			}
		}
		if err := dst.Load(1, loads...); err != nil {
			t.Fatal(err)
		}
		if err := dst.Close(); err != nil {
			t.Fatal(err)
		}
		return old
	}
	// each takes one declaration out of every table.
	each := func(remove func(*sqldb.TableDef)) func(sqldb.TableDef) []sqldb.TableDef {
		return func(def sqldb.TableDef) []sqldb.TableDef {
			remove(&def)
			return []sqldb.TableDef{def}
		}
	}
	// twoNaive turns knn_naive_poi back into the two identical tables an
	// older build wrote, ea_knn_naive_poi and ld_knn_naive_poi.
	twoNaive := func(def sqldb.TableDef) []sqldb.TableDef {
		if def.Name != "knn_naive_poi" {
			return []sqldb.TableDef{def}
		}
		ea, ld := def, def
		ea.Name, ld.Name = "ea_knn_naive_poi", "ld_knn_naive_poi"
		return []sqldb.TableDef{ea, ld}
	}

	for _, tc := range []struct {
		key  string
		edit func(sqldb.TableDef) []sqldb.TableDef
		want []string
	}{
		{`"run_order"`, each(func(d *sqldb.TableDef) { d.RunOrder = nil }), []string{"lout", "run order", "rebuild"}},
		{`"target_ids"`, each(func(d *sqldb.TableDef) { d.TargetIDs = nil }), []string{"_poi", "target ids", "rebuild"}},
		{`"floor"`, each(func(d *sqldb.TableDef) { d.Floor = nil }), []string{"_ea_poi", "floor", "rebuild"}},
		{`"count"`, each(func(d *sqldb.TableDef) {
			if d.TargetIDs != nil {
				ids := *d.TargetIDs
				ids.Count = 0
				d.TargetIDs = &ids
			}
		}), []string{"otm_ea_poi", "target count", "rebuild"}},
		{`"knn_naive_poi"`, twoNaive, []string{`"knn_naive_poi"`, "rebuild"}},
	} {
		if !bytes.Contains(built, []byte(tc.key)) {
			t.Fatalf("the built image does not declare %s", tc.key)
		}
		old := older(tc.edit)
		image, err := os.ReadFile(filepath.Join(old, sqldb.ImageName))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(image, []byte(tc.key)) {
			t.Fatalf("an older image still writes %s", tc.key)
		}
		before := fds()
		for attempt := 1; attempt <= 2; attempt++ {
			db, err := Open(old, Config{Device: "ram"})
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

	// The image as built opens.
	db, err := Open(dir, Config{Device: "ram"})
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
}
