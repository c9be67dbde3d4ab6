package sqldb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"ptldb/internal/sqldb/exec"
	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/sqldb/storage"
)

// labelDef is a label-shaped table declaring runOrder.
func labelDef(name string, runOrder ...string) TableDef {
	return TableDef{
		Name: name, PK: []string{"v"}, RunOrder: runOrder,
		Columns: []ColumnDef{
			{Name: "v", Type: sqltypes.Int64},
			{Name: "hubs", Type: sqltypes.IntArray},
			{Name: "tds", Type: sqltypes.IntArray},
			{Name: "tas", Type: sqltypes.IntArray},
			{Name: "extra", Type: sqltypes.IntArray},
		},
	}
}

func labelRow(v int64, hubs, tds, tas []int64) sqltypes.Row {
	return sqltypes.Row{sqltypes.NewInt(v), sqltypes.NewIntArray(hubs), sqltypes.NewIntArray(tds),
		sqltypes.NewIntArray(tas), sqltypes.NewIntArray(nil)}
}

// TestBulkLoadValidatesRunOrder: a declared run order is checked on every row
// of the one write a table has. A row that breaks it rejects the whole load
// with the row and the array position named, and the table — loaded or not —
// stays as it was, with no temporary file behind. What the declaration admits
// (ties, duplicates, empty arrays, a later run restarting lower) loads, and a
// table that declares nothing takes any order.
func TestBulkLoadValidatesRunOrder(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable(labelDef("lab", "hubs", "tds", "tas"))
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.RunOrder(); !slices.Equal(got, []int{1, 2, 3}) {
		t.Fatalf("RunOrder() = %v, want the positions of hubs, tds, tas", got)
	}
	good := labelRow(0, []int64{1, 1, 1, 1, 5, 5}, []int64{10, 10, 10, 20, 3, 4}, []int64{30, 30, 31, 31, 9, 9})
	bad := []struct {
		name string
		row  sqltypes.Row
		frag string
	}{
		{"hub descends", labelRow(1, []int64{1, 2, 1}, []int64{1, 1, 1}, []int64{2, 2, 2}), "position 2"},
		{"td descends inside a run", labelRow(1, []int64{4, 4}, []int64{9, 8}, []int64{10, 10}), "position 1"},
		{"ta descends inside a run", labelRow(1, []int64{4, 4, 4, 4}, []int64{1, 2, 3, 4}, []int64{9, 9, 9, 8}), "position 3"},
		{"arrays of different length", labelRow(1, []int64{4, 4}, []int64{1, 2}, []int64{9}), "lengths 2, 2, 1"},
	}
	rejected := func(loaded ...string) {
		t.Helper()
		for _, tc := range bad {
			err := tbl.BulkLoad([]sqltypes.Row{good, tc.row})
			if err == nil {
				t.Errorf("%s: accepted", tc.name)
				continue
			}
			for _, frag := range []string{"row 1", "lab", tc.frag} {
				if !strings.Contains(err.Error(), frag) {
					t.Errorf("%s: error lacks %q: %v", tc.name, frag, err)
				}
			}
		}
		requireOnlySegments(t, dir, loaded...)
	}
	rejected()
	if tbl.RowCount() != 0 {
		t.Fatalf("rejected loads stored %d rows", tbl.RowCount())
	}
	load(t, tbl, good, labelRow(2, nil, nil, nil))
	rejected("lab")
	if row, ok, err := tbl.LookupPK([]int64{0}); err != nil || !ok || !slices.Equal(row[3].A, good[3].A) || tbl.RowCount() != 2 {
		t.Fatalf("rejected loads changed a loaded table: %v, %v, %v (%d rows)", row, ok, err, tbl.RowCount())
	}

	free, err := db.CreateTable(labelDef("free"))
	if err != nil {
		t.Fatal(err)
	}
	if free.RunOrder() != nil {
		t.Fatalf("undeclared table reports run order %v", free.RunOrder())
	}
	load(t, free, bad[0].row, good)
}

// targetDef is a condensed-shaped table declaring ids: vs and vs_exp hold
// target ids, tas holds times and declares nothing.
func targetDef(name string, ids *TargetIDs) TableDef {
	return TableDef{
		Name: name, PK: []string{"hub"}, TargetIDs: ids,
		Columns: []ColumnDef{
			{Name: "hub", Type: sqltypes.Int64},
			{Name: "vs", Type: sqltypes.IntArray},
			{Name: "tas", Type: sqltypes.IntArray},
			{Name: "vs_exp", Type: sqltypes.IntArray},
		},
	}
}

// TestBulkLoadValidatesTargetBound: a declared target-id bound is checked on
// every element of every declared column of every row of the one write a table
// has. An id below zero or at the bound — in either column, on the first row or
// a later one — rejects the whole load naming row, column, position and value,
// and the table, loaded or not, stays as it was. A column that declares nothing
// takes any value. A declaration that is not BIGINT[] columns of the table
// under a bound an array can have is refused at CreateTable and again at Open,
// and a sound one survives close and reopen.
func TestBulkLoadValidatesTargetBound(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(targetDef("aux", &TargetIDs{Columns: []string{"vs", "vs_exp"}, Bound: 10}))
	if err != nil {
		t.Fatal(err)
	}
	declares := func(tbl *Table) bool {
		cols, bound, count := tbl.TargetBound()
		return slices.Equal(cols, []int{1, 3}) && bound == 10 && count == 0
	}
	if !declares(tbl) {
		t.Fatalf("TargetBound() does not report the positions of vs, vs_exp under 10")
	}
	row := func(hub int64, vs, vsExp []int64) sqltypes.Row {
		return sqltypes.Row{sqltypes.NewInt(hub), sqltypes.NewIntArray(vs),
			sqltypes.NewIntArray([]int64{-5, 10, math.MaxInt64}), sqltypes.NewIntArray(vsExp)}
	}
	bad := []struct {
		name      string
		vs, vsExp []int64
		frags     []string
	}{
		{"vs below zero", []int64{3, -1}, nil, []string{"aux.vs:", "target id -1", "position 1"}},
		{"vs at the bound", []int64{10}, []int64{1}, []string{"aux.vs:", "target id 10", "position 0"}},
		{"vs_exp below zero", []int64{0, 9}, []int64{0, 1, -7}, []string{"aux.vs_exp:", "target id -7", "position 2"}},
		{"vs_exp at the bound", nil, []int64{9, 10}, []string{"aux.vs_exp:", "target id 10", "position 1"}},
		{"an absurd id", []int64{math.MaxInt64}, nil, []string{"aux.vs:", "position 0"}},
	}
	rejected := func(loaded ...string) {
		t.Helper()
		for _, tc := range bad {
			for at, rows := range [][]sqltypes.Row{
				{row(0, tc.vs, tc.vsExp), row(1, []int64{0, 9, 9}, []int64{5})},
				{row(0, []int64{0, 9, 9}, []int64{5}), row(1, tc.vs, tc.vsExp)},
			} {
				err := tbl.BulkLoad(rows)
				if err == nil {
					t.Errorf("%s on row %d: accepted", tc.name, at)
					continue
				}
				for _, frag := range append(tc.frags, fmt.Sprintf("row %d", at), "[0, 10)") {
					if !strings.Contains(err.Error(), frag) {
						t.Errorf("%s on row %d: error lacks %q: %v", tc.name, at, frag, err)
					}
				}
			}
		}
		requireOnlySegments(t, dir, loaded...)
	}
	rejected()
	if tbl.RowCount() != 0 {
		t.Fatalf("rejected loads stored %d rows", tbl.RowCount())
	}
	load(t, tbl, row(4, []int64{0, 9, 9}, []int64{5}), row(6, nil, nil))
	rejected("aux")
	if got, ok, err := tbl.LookupPK([]int64{4}); err != nil || !ok || !slices.Equal(got[1].A, []int64{0, 9, 9}) || tbl.RowCount() != 2 {
		t.Fatalf("rejected loads changed a loaded table: %v, %v, %v (%d rows)", got, ok, err, tbl.RowCount())
	}

	refused := map[string]*TargetIDs{
		"a missing column":            {Columns: []string{"vs", "nope"}, Bound: 10},
		"a BIGINT column":             {Columns: []string{"hub"}, Bound: 10},
		"no column":                   {Bound: 10},
		"no bound":                    {Columns: []string{"vs"}},
		"a bound no array can have":   {Columns: []string{"vs"}, Bound: math.MaxInt32 + 1},
		"a bound below zero":          {Columns: []string{"vs"}, Bound: -3},
		"a missing column (any case)": {Columns: []string{"VS", "Vs_Exp", "v"}, Bound: 10},
	}
	for what, ids := range refused {
		if _, err := db.CreateTable(targetDef("other", ids)); err == nil || !strings.Contains(err.Error(), `"other"`) {
			t.Errorf("CreateTable declaring %s: %v, want a rejection naming the table", what, err)
		}
	}
	free, err := db.CreateTable(targetDef("free", nil))
	if err != nil {
		t.Fatal(err)
	}
	if cols, bound, _ := free.TargetBound(); cols != nil || bound != 0 {
		t.Fatalf("undeclared table reports target ids %v under %d", cols, bound)
	}
	load(t, free, row(0, []int64{-1, 1 << 40}, []int64{-9}))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	catalog, err := os.ReadFile(filepath.Join(dir, "catalog.json"))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(catalog, []byte(`"target_ids"`)); n != 1 {
		t.Fatalf("catalog mentions target_ids %d times, want once (the declaring table only):\n%s", n, catalog)
	}
	for what, ids := range refused {
		edited, err := json.Marshal(ids)
		if err != nil {
			t.Fatal(err)
		}
		edited = regexp.MustCompile(`(?s)"target_ids": \{.*?\}`).ReplaceAll(catalog, append([]byte(`"target_ids": `), edited...))
		if bytes.Equal(edited, catalog) {
			t.Fatalf("the catalog's declaration was not found:\n%s", catalog)
		}
		if err := os.WriteFile(filepath.Join(dir, "catalog.json"), edited, 0o644); err != nil {
			t.Fatal(err)
		}
		before := openFDs(t)
		db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256, VectorCacheBytes: 1 << 20})
		if err == nil {
			db.Close()
			t.Fatalf("Open accepted a catalog declaring %s", what)
		}
		if !strings.Contains(err.Error(), `"aux"`) {
			t.Errorf("catalog declaring %s: error does not name the table: %v", what, err)
		}
		if after := openFDs(t); after != before {
			t.Errorf("catalog declaring %s: failed open leaked file descriptors: %d before, %d after", what, before, after)
		}
	}

	if err := os.WriteFile(filepath.Join(dir, "catalog.json"), catalog, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err = Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, _ = db.Table("aux")
	free, _ = db.Table("free")
	if cols, _, _ := free.TargetBound(); !declares(tbl) || cols != nil {
		t.Fatalf("after reopen: aux declares %v, free %v", tbl.Def().TargetIDs, free.Def().TargetIDs)
	}
	if err := tbl.BulkLoad([]sqltypes.Row{row(0, []int64{10}, nil)}); err == nil {
		t.Fatal("the reopened table took an id at its bound")
	}
}

// TestBulkLoadValidatesTargetCount: a declared count of distinct target ids
// holds over every declared column of every row of the one write together. An
// id seen again — in its row, in the other column, on a later row — counts
// once, and rows holding exactly the count load. One distinct id more rejects
// the whole load naming the table, row, column, position, id and count, and a
// loaded table keeps serving the segment it had. A count outside [0, bound] is
// refused at CreateTable and again at Open, and a sound one survives close and
// reopen.
func TestBulkLoadValidatesTargetCount(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(targetDef("aux", &TargetIDs{Columns: []string{"vs", "vs_exp"}, Bound: 10, Count: 3}))
	if err != nil {
		t.Fatal(err)
	}
	declares := func(tbl *Table) bool {
		cols, bound, count := tbl.TargetBound()
		return slices.Equal(cols, []int{1, 3}) && bound == 10 && count == 3
	}
	if !declares(tbl) {
		t.Fatalf("TargetBound() does not report vs, vs_exp under 10 with the count 3")
	}
	row := func(hub int64, vs, vsExp []int64) sqltypes.Row {
		// tas declares nothing: its values are neither ids nor counted.
		return sqltypes.Row{sqltypes.NewInt(hub), sqltypes.NewIntArray(vs),
			sqltypes.NewIntArray([]int64{1, 4, 5, 6}), sqltypes.NewIntArray(vsExp)}
	}
	// Three distinct ids, each more than once, in both columns and on both rows.
	load(t, tbl, row(0, []int64{2, 9, 2}, []int64{9}), row(1, []int64{0}, []int64{0, 2, 9}))
	bad := []struct {
		name  string
		rows  []sqltypes.Row
		frags []string
	}{
		{"a fourth id on the first row", []sqltypes.Row{row(0, []int64{2, 9, 0, 5}, nil)},
			[]string{"row 0", "aux.vs:", "target id 5", "position 3", "count 3"}},
		{"a fourth id in vs_exp of a later row", []sqltypes.Row{row(0, []int64{2, 9}, []int64{9, 2}), row(1, []int64{9}, []int64{2, 0, 1})},
			[]string{"row 1", "aux.vs_exp:", "target id 1", "position 2", "count 3"}},
	}
	for _, tc := range bad {
		err := tbl.BulkLoad(tc.rows)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		for _, frag := range tc.frags {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("%s: error lacks %q: %v", tc.name, frag, err)
			}
		}
	}
	requireOnlySegments(t, dir, "aux")
	if got, ok, err := tbl.LookupPK([]int64{1}); err != nil || !ok || !slices.Equal(got[3].A, []int64{0, 2, 9}) || tbl.RowCount() != 2 {
		t.Fatalf("rejected loads changed a loaded table: %v, %v, %v (%d rows)", got, ok, err, tbl.RowCount())
	}

	refused := map[string]int64{"a count below zero": -1, "a count past the bound": 11}
	for what, count := range refused {
		ids := &TargetIDs{Columns: []string{"vs"}, Bound: 10, Count: count}
		if _, err := db.CreateTable(targetDef("other", ids)); err == nil || !strings.Contains(err.Error(), `"other"`) {
			t.Errorf("CreateTable declaring %s: %v, want a rejection naming the table", what, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	catalog, err := os.ReadFile(filepath.Join(dir, "catalog.json"))
	if err != nil {
		t.Fatal(err)
	}
	declared := []byte(`"count": 3`)
	if n := bytes.Count(catalog, []byte(`"count"`)); n != 1 || !bytes.Contains(catalog, declared) {
		t.Fatalf("catalog does not hold the one declaration as expected:\n%s", catalog)
	}
	for what, count := range refused {
		edited := bytes.Replace(catalog, declared, []byte(fmt.Sprintf(`"count": %d`, count)), 1)
		if err := os.WriteFile(filepath.Join(dir, "catalog.json"), edited, 0o644); err != nil {
			t.Fatal(err)
		}
		before := openFDs(t)
		db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256, VectorCacheBytes: 1 << 20})
		if err == nil {
			db.Close()
			t.Fatalf("Open accepted a catalog declaring %s", what)
		}
		if !strings.Contains(err.Error(), `"aux"`) {
			t.Errorf("catalog declaring %s: error does not name the table: %v", what, err)
		}
		if after := openFDs(t); after != before {
			t.Errorf("catalog declaring %s: failed open leaked file descriptors: %d before, %d after", what, before, after)
		}
	}

	if err := os.WriteFile(filepath.Join(dir, "catalog.json"), catalog, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err = Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, _ = db.Table("aux")
	if !declares(tbl) {
		t.Fatalf("after reopen: aux declares %+v", tbl.Def().TargetIDs)
	}
	if err := tbl.BulkLoad(bad[0].rows); err == nil {
		t.Fatal("the reopened table took a fourth distinct id")
	}
}

// floorDef is a condensed-EA-shaped table declaring fl: tas and tas_exp hold
// arrivals, tds_exp departures that declare nothing.
func floorDef(name string, fl *Floor) TableDef {
	return TableDef{
		Name: name, PK: []string{"dephour", "hub"}, Floor: fl,
		Columns: []ColumnDef{
			{Name: "hub", Type: sqltypes.Int64},
			{Name: "dephour", Type: sqltypes.Int64},
			{Name: "tas", Type: sqltypes.IntArray},
			{Name: "tds_exp", Type: sqltypes.IntArray},
			{Name: "tas_exp", Type: sqltypes.IntArray},
		},
	}
}

// TestBulkLoadValidatesFloor: a declared floor is checked on every element of
// every declared column of every row of the one write a table has, against
// the row's own key times the width, exactly at both ends of int64 — where the
// product itself would overflow. An element below it rejects the whole load
// naming table, column, row, position, value and floor, before a byte is
// written, and a loaded table stays as it was. A column that declares nothing
// takes any value. A declaration that is not BIGINT[] columns over a BIGINT key
// at a width of at least 1 is refused at CreateTable and again at Open, and a
// sound one survives close and reopen.
func TestBulkLoadValidatesFloor(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	declared := &Floor{Key: "dephour", Width: 10, Columns: []string{"tas", "tas_exp"}}
	tbl, err := db.CreateTable(floorDef("aux", declared))
	if err != nil {
		t.Fatal(err)
	}
	declares := func(tbl *Table) bool {
		key, width, cols := tbl.Floor()
		return key == 1 && width == 10 && slices.Equal(cols, []int{2, 4})
	}
	if !declares(tbl) {
		t.Fatalf("Floor() does not report dephour × 10 over the positions of tas, tas_exp")
	}
	row := func(bucket int64, tas, tasExp []int64) sqltypes.Row {
		return sqltypes.Row{sqltypes.NewInt(0), sqltypes.NewInt(bucket), sqltypes.NewIntArray(tas),
			sqltypes.NewIntArray([]int64{math.MinInt64, -1}), sqltypes.NewIntArray(tasExp)}
	}
	// The lowest bucket's floor lies below int64: every value clears it.
	lowest := row(math.MinInt64, []int64{math.MinInt64}, []int64{math.MinInt64, 0})
	bad := []struct {
		name  string
		row   sqltypes.Row
		frags []string
	}{
		{"tas one below", row(3, []int64{30, 29}, nil), []string{"aux.tas:", "value 29", "position 1", "floor dephour × 10 = 3 × 10"}},
		{"tas_exp below a negative bucket", row(-2, []int64{-20}, []int64{-15, -21}), []string{"aux.tas_exp:", "value -21", "position 1", "-2 × 10"}},
		{"the least int64 near the least bucket", row(math.MinInt64/10, nil, []int64{math.MinInt64}),
			[]string{"aux.tas_exp:", "value -9223372036854775808", "position 0", "-922337203685477580 × 10"}},
		{"a bucket whose floor lies above int64", row(math.MaxInt64, []int64{math.MaxInt64}, nil), []string{"aux.tas:", "value 9223372036854775807", "position 0"}},
	}
	rejected := func(loaded ...string) {
		t.Helper()
		for _, tc := range bad {
			for at, rows := range [][]sqltypes.Row{{tc.row}, {lowest, tc.row}} {
				err := tbl.BulkLoad(rows)
				if err == nil {
					t.Errorf("%s on row %d: accepted", tc.name, at)
					continue
				}
				for _, frag := range append(tc.frags, fmt.Sprintf("row %d", at)) {
					if !strings.Contains(err.Error(), frag) {
						t.Errorf("%s on row %d: error lacks %q: %v", tc.name, at, frag, err)
					}
				}
			}
		}
		requireOnlySegments(t, dir, loaded...)
	}
	rejected()
	if tbl.RowCount() != 0 {
		t.Fatalf("rejected loads stored %d rows", tbl.RowCount())
	}
	// Values at the floor, above it, below zero, and an undeclared column
	// far below it all load.
	load(t, tbl, lowest, row(-2, []int64{-20, -11}, []int64{-20}), row(3, []int64{30}, []int64{30, 35}))
	rejected("aux")
	if got, ok, err := tbl.LookupPK([]int64{3, 0}); err != nil || !ok || !slices.Equal(got[4].A, []int64{30, 35}) || tbl.RowCount() != 3 {
		t.Fatalf("rejected loads changed a loaded table: %v, %v, %v (%d rows)", got, ok, err, tbl.RowCount())
	}

	refused := map[string]*Floor{
		"a missing key":    {Key: "nope", Width: 10, Columns: []string{"tas"}},
		"a BIGINT[] key":   {Key: "tas", Width: 10, Columns: []string{"tas"}},
		"a zero width":     {Key: "dephour", Columns: []string{"tas"}},
		"a negative width": {Key: "dephour", Width: -10, Columns: []string{"tas"}},
		"no column":        {Key: "dephour", Width: 10},
		"a BIGINT column":  {Key: "dephour", Width: 10, Columns: []string{"tas", "hub"}},
		"a missing column": {Key: "dephour", Width: 10, Columns: []string{"tas_exp", "nope"}},
	}
	for what, fl := range refused {
		if _, err := db.CreateTable(floorDef("other", fl)); err == nil || !strings.Contains(err.Error(), `"other"`) {
			t.Errorf("CreateTable declaring %s: %v, want a rejection naming the table", what, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	catalog, err := os.ReadFile(filepath.Join(dir, "catalog.json"))
	if err != nil {
		t.Fatal(err)
	}
	for what, fl := range refused {
		edited, err := json.Marshal(fl)
		if err != nil {
			t.Fatal(err)
		}
		edited = regexp.MustCompile(`(?s)"floor": \{.*?\}`).ReplaceAll(catalog, append([]byte(`"floor": `), edited...))
		if bytes.Equal(edited, catalog) {
			t.Fatalf("the catalog's declaration was not found:\n%s", catalog)
		}
		if err := os.WriteFile(filepath.Join(dir, "catalog.json"), edited, 0o644); err != nil {
			t.Fatal(err)
		}
		before := openFDs(t)
		db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256, VectorCacheBytes: 1 << 20})
		if err == nil {
			db.Close()
			t.Fatalf("Open accepted a catalog declaring %s", what)
		}
		if !strings.Contains(err.Error(), `"aux"`) {
			t.Errorf("catalog declaring %s: error does not name the table: %v", what, err)
		}
		if after := openFDs(t); after != before {
			t.Errorf("catalog declaring %s: failed open leaked file descriptors: %d before, %d after", what, before, after)
		}
	}

	if err := os.WriteFile(filepath.Join(dir, "catalog.json"), catalog, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err = Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, _ = db.Table("aux")
	if !declares(tbl) {
		t.Fatalf("after reopen: aux declares %+v", tbl.Def().Floor)
	}
	if err := tbl.BulkLoad([]sqltypes.Row{row(1, []int64{9}, nil)}); err == nil {
		t.Fatal("the reopened table took a value below its floor")
	}
}

// TestRunOrderDeclarationFailsClosed: a declaration that is not three
// BIGINT[] columns of the table is refused where the table is declared, and
// refused again — naming the table, opening nothing — when the same text
// reaches Open through a hand-edited catalog. A table that declares nothing
// writes a catalog entry without the field.
func TestRunOrderDeclarationFailsClosed(t *testing.T) {
	bad := map[string][]string{
		"a missing column": {"hubs", "tds", "nope"},
		"a BIGINT column":  {"v", "tds", "tas"},
		"a fourth column":  {"hubs", "tds", "tas", "extra"},
		"two columns":      {"hubs", "tds"},
	}
	dir := t.TempDir()
	db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	for what, runOrder := range bad {
		if _, err := db.CreateTable(labelDef("lab", runOrder...)); err == nil || !strings.Contains(err.Error(), `"lab"`) {
			t.Errorf("CreateTable declaring %s: %v, want a rejection naming the table", what, err)
		}
	}
	if _, ok := db.Table("lab"); ok {
		t.Fatal("a refused declaration left the table behind")
	}
	if _, err := os.Stat(filepath.Join(dir, "catalog.json")); !os.IsNotExist(err) {
		t.Fatalf("a refused declaration wrote the catalog: %v", err)
	}
	for _, def := range []TableDef{labelDef("lab", "hubs", "tds", "tas"), labelDef("other")} {
		tbl, err := db.CreateTable(def)
		if err != nil {
			t.Fatal(err)
		}
		load(t, tbl, labelRow(1, []int64{1}, []int64{2}, []int64{3}))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	catalog, err := os.ReadFile(filepath.Join(dir, "catalog.json"))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(catalog, []byte(`"run_order"`)); n != 1 {
		t.Fatalf("catalog mentions run_order %d times, want once (the declaring table only):\n%s", n, catalog)
	}
	declared := []byte(`"run_order": [
      "hubs",
      "tds",
      "tas"
    ]`)
	if !bytes.Contains(catalog, declared) {
		t.Fatalf("catalog does not hold the declaration as expected:\n%s", catalog)
	}

	for what, runOrder := range bad {
		edited := bytes.Replace(catalog, declared, []byte(`"run_order": ["`+strings.Join(runOrder, `", "`)+`"]`), 1)
		if err := os.WriteFile(filepath.Join(dir, "catalog.json"), edited, 0o644); err != nil {
			t.Fatal(err)
		}
		before := openFDs(t)
		db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256, VectorCacheBytes: 1 << 20})
		if err == nil {
			db.Close()
			t.Fatalf("Open accepted a catalog declaring %s", what)
		}
		if !strings.Contains(err.Error(), `"lab"`) {
			t.Errorf("catalog declaring %s: error does not name the table: %v", what, err)
		}
		if after := openFDs(t); after != before {
			t.Errorf("catalog declaring %s: failed open leaked file descriptors: %d before, %d after", what, before, after)
		}
	}

	// The declaration restored, the directory opens and still declares.
	if err := os.WriteFile(filepath.Join(dir, "catalog.json"), catalog, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err = Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	lab, _ := db.Table("lab")
	other, _ := db.Table("other")
	if !slices.Equal(lab.RunOrder(), []int{1, 2, 3}) || other.RunOrder() != nil {
		t.Fatalf("after reopen: lab declares %v, other %v", lab.RunOrder(), other.RunOrder())
	}
}

// TestFusedPlanAnswersOrErrors: a statement of the workload over a label
// table that declares no run order fails Prepare, naming the table; a
// prepared one runs on its fused plan or fails with an error that says what
// is wrong — a parameter that is not a BIGINT — and the general executor is
// never asked for a second opinion. The same statements on a reference handle
// never fuse, so both prepare.
func TestFusedPlanAnswersOrErrors(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, def := range []TableDef{labelDef("lout", "hubs", "tds", "tas"), labelDef("lin", "hubs", "tds", "tas"), labelDef("lin_old")} {
		tbl, err := db.CreateTable(def)
		if err != nil {
			t.Fatal(err)
		}
		load(t, tbl, labelRow(1, []int64{7}, []int64{10}, []int64{10})) // the hub's dummy tuple
	}
	one := sqltypes.NewInt(1)
	st, err := db.Prepare(fmt.Sprintf(exec.SQLV2VEA, "lout", "lin"))
	if err != nil || !st.Fused() {
		t.Fatalf("v2v-ea: fused %v, %v", st.Fused(), err)
	}
	rel, info, err := st.QueryInfo(one, one, sqltypes.NewInt(0))
	if err != nil || !info.Fused || rel.Rows[0][0].I != 10 {
		t.Fatalf("EA = %v, %+v, %v; want 10 from the fused plan", rel, info, err)
	}
	if old, err := db.Prepare(fmt.Sprintf(exec.SQLV2VEA, "lout", "lin_old")); err == nil {
		t.Errorf("an undeclared label table prepared: fused %v", old.Fused())
	} else {
		for _, frag := range []string{`"lin_old"`, "run order", "rebuild"} {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("an undeclared label table: error %q lacks %q", err, frag)
			}
		}
	}
	for _, tc := range []struct {
		what   string
		st     *Stmt
		params []sqltypes.Value
		want   []string
	}{
		{"a float parameter", st, []sqltypes.Value{one, sqltypes.NewFloat(1.5), one}, []string{"v2v-ea", "$2", "BIGINT"}},
		{"a NULL parameter", st, []sqltypes.Value{one, one, {}}, []string{"v2v-ea", "$3", "BIGINT"}},
		{"a missing parameter", st, []sqltypes.Value{one, one}, []string{"v2v-ea", "$3", "missing"}},
	} {
		_, info, err := tc.st.QueryInfo(tc.params...)
		if err == nil || !info.Fused {
			t.Errorf("%s: err = %v, info = %+v; want an error from the fused plan", tc.what, err, info)
			continue
		}
		for _, frag := range tc.want {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("%s: error %q lacks %q", tc.what, err, frag)
			}
		}
	}
	if fused, general := db.FusedStats(); fused != 4 || general != 0 {
		t.Errorf("%d fused runs, %d general runs; want 4 and 0", fused, general)
	}

	ref, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256, ReferenceExec: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	rst, err := ref.Prepare(fmt.Sprintf(exec.SQLV2VEA, "lout", "lin"))
	if err != nil || rst.Fused() {
		t.Fatalf("reference handle: fused %v, %v", rst.Fused(), err)
	}
	if _, err := ref.Prepare(fmt.Sprintf(exec.SQLV2VEA, "lout", "lin_old")); err != nil {
		t.Errorf("reference handle: an undeclared label table: %v", err)
	}
	if _, err := rst.Explain(); err == nil {
		t.Error("reference handle explained a fused plan it does not have")
	}
	rel, info, err = rst.QueryInfo(one, one, sqltypes.NewInt(0))
	if err != nil || info.Fused || rel.Rows[0][0].I != 10 {
		t.Fatalf("reference EA = %v, %+v, %v; want 10 from the general executor", rel, info, err)
	}
	if fused, general := ref.FusedStats(); fused != 0 || general != 1 {
		t.Errorf("reference handle: %d fused runs, %d general runs; want 0 and 1", fused, general)
	}
}
