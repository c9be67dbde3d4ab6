package sqldb

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
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

func labelRow(v int64, hubs, tds, tas []int32) sqltypes.Row {
	return sqltypes.Row{sqltypes.NewInt(v), sqltypes.NewIntArray(hubs), sqltypes.NewIntArray(tds),
		sqltypes.NewIntArray(tas), sqltypes.NewIntArray(nil)}
}

// TestBulkLoadValidatesRunOrder: a declared run order is checked on every row
// of the one write a table has. A row that breaks it rejects the whole load
// with the row and the array position named, and the table — loaded or not —
// stays as it was, with no temporary file behind. What the declaration admits
// (ties in tas, repeated hubs, arrivals equal to departures, empty arrays, a
// later run restarting lower) loads, and a table that declares nothing takes
// any order. A td repeated inside a run, which a minimal label never holds,
// and a ta below its td are refused: the packed columns have no encoding for
// either.
func TestBulkLoadValidatesRunOrder(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	def := labelDef("lab", "hubs", "tds", "tas")
	good := labelRow(0, []int32{1, 1, 1, 1, 5, 5}, []int32{10, 11, 12, 20, 3, 4}, []int32{30, 30, 31, 31, 9, 9})
	bad := []struct {
		name string
		row  sqltypes.Row
		frag string
	}{
		{"hub descends", labelRow(1, []int32{1, 2, 1}, []int32{1, 1, 1}, []int32{2, 2, 2}), "position 2"},
		{"td descends inside a run", labelRow(1, []int32{4, 4}, []int32{9, 8}, []int32{10, 10}), "position 1"},
		{"ta descends inside a run", labelRow(1, []int32{4, 4, 4, 4}, []int32{1, 2, 3, 4}, []int32{9, 9, 9, 8}), "position 3"},
		{"td repeated inside a run", labelRow(1, []int32{4, 4, 4}, []int32{1, 2, 2}, []int32{9, 9, 9}), "position 2"},
		{"ta below td", labelRow(1, []int32{4, 7}, []int32{1, 8}, []int32{9, 7}), "position 1"},
		{"arrays of different length", labelRow(1, []int32{4, 4}, []int32{1, 2}, []int32{9}), "lengths 2, 2, 1"},
	}
	rejected := func(loaded bool) {
		t.Helper()
		for _, tc := range bad {
			_, err := tryLoad(db, def, good, tc.row)
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
		requireCommitted(t, dir, loaded)
	}
	rejected(false)
	if _, ok := db.Table("lab"); ok {
		t.Fatal("rejected loads entered the table")
	}
	tbl := load(t, db, def, good, labelRow(2, nil, nil, nil))
	if got := tbl.RunOrder(); !slices.Equal(got, []int{1, 2, 3}) {
		t.Fatalf("RunOrder() = %v, want the positions of hubs, tds, tas", got)
	}
	rejected(true)
	if now, _ := db.Table("lab"); now != tbl {
		t.Fatal("a rejected load replaced the loaded table")
	}
	if row, ok, err := tbl.LookupPK([]int64{0}); err != nil || !ok || !slices.Equal(row[3].A, good[3].A) || tbl.RowCount() != 2 {
		t.Fatalf("rejected loads changed a loaded table: %v, %v, %v (%d rows)", row, ok, err, tbl.RowCount())
	}

	free := load(t, db, labelDef("free"), bad[0].row, good)
	if free.RunOrder() != nil {
		t.Fatalf("undeclared table reports run order %v", free.RunOrder())
	}
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
// takes any value. A declaration that is not INT[] columns of the table
// under a bound an array can have is refused at Load and again at Open,
// and a sound one survives close and reopen.
func TestBulkLoadValidatesTargetBound(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	def := targetDef("aux", &TargetIDs{Columns: []string{"vs", "vs_exp"}, Bound: 10})
	declares := func(tbl *Table) bool {
		cols, bound, count := tbl.TargetBound()
		return slices.Equal(cols, []int{1, 3}) && bound == 10 && count == 0
	}
	row := func(hub int64, vs, vsExp []int32) sqltypes.Row {
		return sqltypes.Row{sqltypes.NewInt(hub), sqltypes.NewIntArray(vs),
			sqltypes.NewIntArray([]int32{-5, 10, math.MaxInt32}), sqltypes.NewIntArray(vsExp)}
	}
	bad := []struct {
		name      string
		vs, vsExp []int32
		frags     []string
	}{
		{"vs below zero", []int32{3, -1}, nil, []string{"aux.vs:", "target id -1", "position 1"}},
		{"vs at the bound", []int32{10}, []int32{1}, []string{"aux.vs:", "target id 10", "position 0"}},
		{"vs_exp below zero", []int32{0, 9}, []int32{0, 1, -7}, []string{"aux.vs_exp:", "target id -7", "position 2"}},
		{"vs_exp at the bound", nil, []int32{9, 10}, []string{"aux.vs_exp:", "target id 10", "position 1"}},
		{"an absurd id", []int32{math.MaxInt32}, nil, []string{"aux.vs:", "position 0"}},
	}
	rejected := func(loaded bool) {
		t.Helper()
		for _, tc := range bad {
			for at, rows := range [][]sqltypes.Row{
				{row(0, tc.vs, tc.vsExp), row(1, []int32{0, 9, 9}, []int32{5})},
				{row(0, []int32{0, 9, 9}, []int32{5}), row(1, tc.vs, tc.vsExp)},
			} {
				_, err := tryLoad(db, def, rows...)
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
		requireCommitted(t, dir, loaded)
	}
	rejected(false)
	if _, ok := db.Table("aux"); ok {
		t.Fatal("rejected loads entered the table")
	}
	tbl := load(t, db, def, row(4, []int32{0, 9, 9}, []int32{5}), row(6, nil, nil))
	if !declares(tbl) {
		t.Fatalf("TargetBound() does not report the positions of vs, vs_exp under 10")
	}
	rejected(true)
	if got, ok, err := tbl.LookupPK([]int64{4}); err != nil || !ok || !slices.Equal(got[1].A, []int32{0, 9, 9}) || tbl.RowCount() != 2 {
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
		if _, err := tryLoad(db, targetDef("other", ids)); err == nil || !strings.Contains(err.Error(), `"other"`) {
			t.Errorf("Load declaring %s: %v, want a rejection naming the table", what, err)
		}
	}
	free := load(t, db, targetDef("free", nil), row(0, []int32{-1, math.MaxInt32}, []int32{-9}))
	if cols, bound, _ := free.TargetBound(); cols != nil || bound != 0 {
		t.Fatalf("undeclared table reports target ids %v under %d", cols, bound)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	if n := bytes.Count(readImage(t, dir), []byte(`"target_ids"`)); n != 1 {
		t.Fatalf("the image mentions target_ids %d times, want once (the declaring table only)", n)
	}
	edits := map[string]func(*TableDef){}
	for what, ids := range refused {
		edits[what] = func(def *TableDef) { def.TargetIDs = ids }
	}
	refuseAtOpen(t, dir, "aux", edits)
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
	if _, err := tryLoad(db, tbl.Def(), row(0, []int32{10}, nil)); err == nil {
		t.Fatal("the reopened table's definition took an id at its bound")
	}
}

// TestBulkLoadValidatesTargetCount: a declared count of distinct target ids
// holds over every declared column of every row of the one write together. An
// id seen again — in its row, in the other column, on a later row — counts
// once, and rows holding exactly the count load. One distinct id more rejects
// the whole load naming the table, row, column, position, id and count, and a
// loaded table keeps serving the segment it had. A count outside [0, bound] is
// refused at Load and again at Open, and a sound one survives close and
// reopen.
func TestBulkLoadValidatesTargetCount(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	def := targetDef("aux", &TargetIDs{Columns: []string{"vs", "vs_exp"}, Bound: 10, Count: 3})
	declares := func(tbl *Table) bool {
		cols, bound, count := tbl.TargetBound()
		return slices.Equal(cols, []int{1, 3}) && bound == 10 && count == 3
	}
	row := func(hub int64, vs, vsExp []int32) sqltypes.Row {
		// tas declares nothing: its values are neither ids nor counted.
		return sqltypes.Row{sqltypes.NewInt(hub), sqltypes.NewIntArray(vs),
			sqltypes.NewIntArray([]int32{1, 4, 5, 6}), sqltypes.NewIntArray(vsExp)}
	}
	// Three distinct ids, each more than once, in both columns and on both rows.
	tbl := load(t, db, def, row(0, []int32{2, 9, 2}, []int32{9}), row(1, []int32{0}, []int32{0, 2, 9}))
	if !declares(tbl) {
		t.Fatalf("TargetBound() does not report vs, vs_exp under 10 with the count 3")
	}
	bad := []struct {
		name  string
		rows  []sqltypes.Row
		frags []string
	}{
		{"a fourth id on the first row", []sqltypes.Row{row(0, []int32{2, 9, 0, 5}, nil)},
			[]string{"row 0", "aux.vs:", "target id 5", "position 3", "count 3"}},
		{"a fourth id in vs_exp of a later row", []sqltypes.Row{row(0, []int32{2, 9}, []int32{9, 2}), row(1, []int32{9}, []int32{2, 0, 1})},
			[]string{"row 1", "aux.vs_exp:", "target id 1", "position 2", "count 3"}},
	}
	for _, tc := range bad {
		_, err := tryLoad(db, def, tc.rows...)
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
	requireCommitted(t, dir, true)
	if got, ok, err := tbl.LookupPK([]int64{1}); err != nil || !ok || !slices.Equal(got[3].A, []int32{0, 2, 9}) || tbl.RowCount() != 2 {
		t.Fatalf("rejected loads changed a loaded table: %v, %v, %v (%d rows)", got, ok, err, tbl.RowCount())
	}

	refused := map[string]int64{"a count below zero": -1, "a count past the bound": 11}
	for what, count := range refused {
		ids := &TargetIDs{Columns: []string{"vs"}, Bound: 10, Count: count}
		if _, err := tryLoad(db, targetDef("other", ids)); err == nil || !strings.Contains(err.Error(), `"other"`) {
			t.Errorf("Load declaring %s: %v, want a rejection naming the table", what, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	if image := readImage(t, dir); bytes.Count(image, []byte(`"count"`)) != 1 || !bytes.Contains(image, []byte(`"count":3`)) {
		t.Fatalf("the image does not hold the one declaration as expected")
	}
	edits := map[string]func(*TableDef){}
	for what, count := range refused {
		edits[what] = func(def *TableDef) { def.TargetIDs.Count = count }
	}
	refuseAtOpen(t, dir, "aux", edits)
	db, err = Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, _ = db.Table("aux")
	if !declares(tbl) {
		t.Fatalf("after reopen: aux declares %+v", tbl.Def().TargetIDs)
	}
	if _, err := tryLoad(db, tbl.Def(), bad[0].rows...); err == nil {
		t.Fatal("the reopened table's definition took a fourth distinct id")
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
// takes any value. A declaration that is not INT[] columns over a BIGINT key
// at a width of at least 1 is refused at Load and again at Open, and a
// sound one survives close and reopen.
func TestBulkLoadValidatesFloor(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	declared := &Floor{Key: "dephour", Width: 10, Columns: []string{"tas", "tas_exp"}}
	def := floorDef("aux", declared)
	declares := func(tbl *Table) bool {
		key, width, cols := tbl.Floor()
		return key == 1 && width == 10 && slices.Equal(cols, []int{2, 4})
	}
	row := func(bucket int64, tas, tasExp []int32) sqltypes.Row {
		return sqltypes.Row{sqltypes.NewInt(0), sqltypes.NewInt(bucket), sqltypes.NewIntArray(tas),
			sqltypes.NewIntArray([]int32{math.MinInt32, -1}), sqltypes.NewIntArray(tasExp)}
	}
	// The lowest bucket's floor lies below int64: every value clears it.
	lowest := row(math.MinInt64, []int32{math.MinInt32}, []int32{math.MinInt32, 0})
	bad := []struct {
		name  string
		row   sqltypes.Row
		frags []string
	}{
		{"tas one below", row(3, []int32{30, 29}, nil), []string{"aux.tas:", "value 29", "position 1", "floor dephour × 10 = 3 × 10"}},
		{"tas_exp below a negative bucket", row(-2, []int32{-20}, []int32{-15, -21}), []string{"aux.tas_exp:", "value -21", "position 1", "-2 × 10"}},
		{"the least int32 just below its bucket", row(math.MinInt32/10, nil, []int32{math.MinInt32}),
			[]string{"aux.tas_exp:", "value -2147483648", "position 0", "-214748364 × 10"}},
		{"a bucket whose floor lies above int64", row(math.MaxInt64, []int32{math.MaxInt32}, nil), []string{"aux.tas:", "value 2147483647", "position 0"}},
	}
	rejected := func(loaded bool) {
		t.Helper()
		for _, tc := range bad {
			for at, rows := range [][]sqltypes.Row{{tc.row}, {lowest, tc.row}} {
				_, err := tryLoad(db, def, rows...)
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
		requireCommitted(t, dir, loaded)
	}
	rejected(false)
	if _, ok := db.Table("aux"); ok {
		t.Fatal("rejected loads entered the table")
	}
	// Values at the floor, above it, below zero, and an undeclared column
	// far below it all load.
	tbl := load(t, db, def, lowest, row(-2, []int32{-20, -11}, []int32{-20}), row(3, []int32{30}, []int32{30, 35}))
	if !declares(tbl) {
		t.Fatalf("Floor() does not report dephour × 10 over the positions of tas, tas_exp")
	}
	rejected(true)
	if got, ok, err := tbl.LookupPK([]int64{3, 0}); err != nil || !ok || !slices.Equal(got[4].A, []int32{30, 35}) || tbl.RowCount() != 3 {
		t.Fatalf("rejected loads changed a loaded table: %v, %v, %v (%d rows)", got, ok, err, tbl.RowCount())
	}

	refused := map[string]*Floor{
		"a missing key":    {Key: "nope", Width: 10, Columns: []string{"tas"}},
		"an INT[] key":     {Key: "tas", Width: 10, Columns: []string{"tas"}},
		"a zero width":     {Key: "dephour", Columns: []string{"tas"}},
		"a negative width": {Key: "dephour", Width: -10, Columns: []string{"tas"}},
		"no column":        {Key: "dephour", Width: 10},
		"a BIGINT column":  {Key: "dephour", Width: 10, Columns: []string{"tas", "hub"}},
		"a missing column": {Key: "dephour", Width: 10, Columns: []string{"tas_exp", "nope"}},
	}
	for what, fl := range refused {
		if _, err := tryLoad(db, floorDef("other", fl)); err == nil || !strings.Contains(err.Error(), `"other"`) {
			t.Errorf("Load declaring %s: %v, want a rejection naming the table", what, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	edits := map[string]func(*TableDef){}
	for what, fl := range refused {
		edits[what] = func(def *TableDef) { def.Floor = fl }
	}
	refuseAtOpen(t, dir, "aux", edits)
	db, err = Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, _ = db.Table("aux")
	if !declares(tbl) {
		t.Fatalf("after reopen: aux declares %+v", tbl.Def().Floor)
	}
	if _, err := tryLoad(db, tbl.Def(), row(1, []int32{9}, nil)); err == nil {
		t.Fatal("the reopened table's definition took a value below its floor")
	}
}

// TestRunOrderDeclarationFailsClosed: a declaration that is not three
// INT[] columns of the table in the order they are stored (as runs, gaps and
// offsets) is refused where the table is loaded, and
// refused again — naming the table, opening nothing — when the same
// declaration reaches Open through a hand-edited header. A table that
// declares nothing writes a definition without the field.
func TestRunOrderDeclarationFailsClosed(t *testing.T) {
	bad := map[string][]string{
		"a missing column":     {"hubs", "tds", "nope"},
		"a BIGINT column":      {"v", "tds", "tas"},
		"a fourth column":      {"hubs", "tds", "tas", "extra"},
		"two columns":          {"hubs", "tds"},
		"runs after a sibling": {"tds", "hubs", "tas"},
		"siblings swapped":     {"hubs", "tas", "tds"},
	}
	dir := t.TempDir()
	db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	for what, runOrder := range bad {
		if _, err := tryLoad(db, labelDef("lab", runOrder...)); err == nil || !strings.Contains(err.Error(), `"lab"`) {
			t.Errorf("Load declaring %s: %v, want a rejection naming the table", what, err)
		}
	}
	if _, ok := db.Table("lab"); ok {
		t.Fatal("a refused declaration left the table behind")
	}
	if listing := dirListing(t, dir); listing != "" {
		t.Fatalf("a refused declaration wrote files:\n%s", listing)
	}
	for _, def := range []TableDef{labelDef("lab", "hubs", "tds", "tas"), labelDef("other")} {
		load(t, db, def, labelRow(1, []int32{1}, []int32{2}, []int32{3}))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	image := readImage(t, dir)
	if n := bytes.Count(image, []byte(`"run_order"`)); n != 1 {
		t.Fatalf("the image mentions run_order %d times, want once (the declaring table only)", n)
	}
	if !bytes.Contains(image, []byte(`"run_order":["hubs","tds","tas"]`)) {
		t.Fatalf("the image does not hold the declaration as expected")
	}
	edits := map[string]func(*TableDef){}
	for what, runOrder := range bad {
		edits[what] = func(def *TableDef) { def.RunOrder = runOrder }
	}
	// The declaration restored, the directory opens and still declares.
	refuseAtOpen(t, dir, "lab", edits)
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
		load(t, db, def, labelRow(1, []int32{7}, []int32{10}, []int32{10})) // the hub's dummy tuple
	}
	one := sqltypes.NewInt(1)
	st, err := db.Prepare(fmt.Sprintf(exec.SQLV2VEA, "lout", "lin"))
	if err != nil || !st.Fused() {
		t.Fatalf("v2v-ea: fused %v, %v", st.Fused(), err)
	}
	ex := &db.Registry().Exec
	rel, err := st.Query(one, one, sqltypes.NewInt(0))
	if err != nil || ex.FusedRuns.Load() != 1 || rel.Rows[0][0].I != 10 {
		t.Fatalf("EA = %v, %v after %d fused runs; want 10 from the fused plan", rel, err, ex.FusedRuns.Load())
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
		before := ex.FusedRuns.Load()
		_, err := tc.st.Query(tc.params...)
		if err == nil || ex.FusedRuns.Load() != before+1 {
			t.Errorf("%s: err = %v, fused runs %d -> %d; want an error from the fused plan", tc.what, err, before, ex.FusedRuns.Load())
			continue
		}
		for _, frag := range tc.want {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("%s: error %q lacks %q", tc.what, err, frag)
			}
		}
	}
	if fused, general := ex.FusedRuns.Load(), ex.GeneralRuns.Load(); fused != 4 || general != 0 {
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
	rex := &ref.Registry().Exec
	rel, err = rst.Query(one, one, sqltypes.NewInt(0))
	if err != nil || rex.GeneralRuns.Load() != 1 || rel.Rows[0][0].I != 10 {
		t.Fatalf("reference EA = %v, %v after %d general runs; want 10 from the general executor", rel, err, rex.GeneralRuns.Load())
	}
	if fused, general := rex.FusedRuns.Load(), rex.GeneralRuns.Load(); fused != 0 || general != 1 {
		t.Errorf("reference handle: %d fused runs, %d general runs; want 0 and 1", fused, general)
	}
}

// readImage returns the bytes of dir's image.
func readImage(t *testing.T, dir string) []byte {
	t.Helper()
	image, err := os.ReadFile(filepath.Join(dir, ImageName))
	if err != nil {
		t.Fatal(err)
	}
	return image
}

// refuseAtOpen gives table name, in turn, each definition an edit makes of
// its own — sealed in the header of its segment, as Load never writes one —
// and requires Open to refuse each, naming the table, with no descriptor
// left open. The image is restored as built afterwards.
func refuseAtOpen(t *testing.T, dir, name string, edits map[string]func(*TableDef)) {
	t.Helper()
	built := readImage(t, dir)
	restore := func() {
		if err := os.WriteFile(filepath.Join(dir, ImageName), built, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	defer restore()
	for what, edit := range edits {
		editDef(t, dir, name, edit)
		before := openFDs(t)
		db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256, VectorCacheBytes: 1 << 20})
		if err == nil {
			db.Close()
			t.Fatalf("Open accepted a header declaring %s", what)
		}
		if !strings.Contains(err.Error(), `"`+name+`"`) {
			t.Errorf("header declaring %s: error does not name the table: %v", what, err)
		}
		if after := openFDs(t); after != before {
			t.Errorf("header declaring %s: failed open leaked file descriptors: %d before, %d after", what, before, after)
		}
		restore()
	}
}
