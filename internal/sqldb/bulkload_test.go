package sqldb

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"ptldb/internal/sqldb/exec"
	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/sqldb/storage"
)

// TestTableBulkLoadKeyless: a table without a primary key has no stored form
// and is refused when it is declared, before any file exists.
func TestTableBulkLoadKeyless(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Device: storage.RAM})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, err = db.CreateTable(TableDef{Name: "plain",
		Columns: []ColumnDef{{Name: "a", Type: sqltypes.Int64}, {Name: "b", Type: sqltypes.Int64}}})
	if err == nil || !strings.Contains(err.Error(), "primary key") {
		t.Fatalf("CreateTable without a key: %v, want a rejection naming the primary key", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("refused table left %d files behind", len(entries))
	}
}

// TestTableBulkLoadCoercesInts checks integer values land in DOUBLE columns
// as floats.
func TestTableBulkLoadCoercesInts(t *testing.T) {
	db := newTestDB(t)
	tbl := mkTable(t, db, "coerce", []string{"k"}, "k", "x:float")
	if err := tbl.BulkLoad([]sqltypes.Row{
		{sqltypes.NewInt(1), sqltypes.NewInt(7)},
	}); err != nil {
		t.Fatal(err)
	}
	row, ok, err := tbl.LookupPK([]int64{1})
	if err != nil || !ok {
		t.Fatalf("LookupPK = %v, %v", ok, err)
	}
	if row[1].T != sqltypes.Float64 || row[1].F != 7 {
		t.Fatalf("coerced value = %v", row[1])
	}
}

// TestTableBulkLoadTinyReopen bulk-loads zero-row and one-row tables —
// all-BIGINT and with DOUBLE and TEXT columns — and cycles the database
// through Close/Open: all must come back valid, with correct counts and
// working lookups and scans, from a directory of segments and the catalog
// alone.
func TestTableBulkLoadTinyReopen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Device: storage.RAM, PoolPages: 256, VectorCacheBytes: 1 << 20}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []struct {
		prefix string
		cols   []string
		row    sqltypes.Row
	}{
		{"ints", []string{"k", "v", "x"}, ints(7, 70, 1)},
		{"mixed", []string{"k", "v", "x:float", "s:text"},
			sqltypes.Row{sqltypes.NewInt(7), sqltypes.NewInt(70), sqltypes.NewFloat(1.5), sqltypes.NewText("seven")}},
	}
	for _, kind := range kinds {
		empty := mkTable(t, db, kind.prefix+"_empty", []string{"k"}, kind.cols...)
		if err := empty.BulkLoad(nil); err != nil {
			t.Fatalf("BulkLoad(nil): %v", err)
		}
		single := mkTable(t, db, kind.prefix+"_single", []string{"k"}, kind.cols...)
		if err := single.BulkLoad([]sqltypes.Row{kind.row}); err != nil {
			t.Fatalf("BulkLoad(1 row): %v", err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	requireOnlySegments(t, dir, "ints_empty", "ints_single", "mixed_empty", "mixed_single")

	db2, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	for _, kind := range kinds {
		empty, ok := db2.Table(kind.prefix + "_empty")
		if !ok {
			t.Fatalf("%s_empty missing after reopen", kind.prefix)
		}
		if empty.RowCount() != 0 {
			t.Fatalf("%s_empty: RowCount after reopen = %d", kind.prefix, empty.RowCount())
		}
		if _, ok, err := empty.LookupPK([]int64{7}); err != nil || ok {
			t.Fatalf("LookupPK on reopened empty table = %v, %v", ok, err)
		}
		rows := 0
		if err := empty.Scan(func(sqltypes.Row) error { rows++; return nil }); err != nil {
			t.Fatal(err)
		}
		if rows != 0 {
			t.Fatalf("scan of reopened empty table saw %d rows", rows)
		}
		single, ok := db2.Table(kind.prefix + "_single")
		if !ok {
			t.Fatal("single table missing after reopen")
		}
		if single.RowCount() != 1 {
			t.Fatalf("RowCount after reopen = %d, want 1", single.RowCount())
		}
		row, ok, err := single.LookupPK([]int64{7})
		if err != nil || !ok || len(row) != len(kind.row) {
			t.Fatalf("LookupPK on reopened single table = %v, %v, %v", row, ok, err)
		}
		for i := range row {
			if !sqltypes.Equal(row[i], kind.row[i]) {
				t.Fatalf("%s_single column %d reopened as %v, want %v", kind.prefix, i, row[i], kind.row[i])
			}
		}
		// A table can be loaded after a reopen as well as before one.
		if err := single.BulkLoad(nil); err != nil || single.RowCount() != 0 {
			t.Fatalf("emptying %s_single after reopen: %v (%d rows)", kind.prefix, err, single.RowCount())
		}
	}
}

// requireOnlySegments fails unless dir holds exactly catalog.json and one
// <table>.seg per named table.
func requireOnlySegments(t *testing.T, dir string, tables ...string) {
	t.Helper()
	want := map[string]bool{"catalog.json": true}
	for _, name := range tables {
		want[name+".seg"] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !want[e.Name()] {
			t.Errorf("unexpected file %s in the database directory", e.Name())
		}
		delete(want, e.Name())
	}
	for name := range want {
		t.Errorf("%s missing from the database directory", name)
	}
}

// TestBulkLoadReplacesTable: BulkLoad is the table's one write, so loading a
// table that has rows replaces them — atomically, by rename, leaving only
// <name>.seg on disk — and no reader sees the old content afterwards, not
// even where the old content was resident vectors: the replaced table lets
// them go and reads its new segment.
func TestBulkLoadReplacesTable(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	tbl := mkTable(t, db, "lab", []string{"k"}, "k", "xs:arr")
	row := func(k, x int64) sqltypes.Row {
		return sqltypes.Row{sqltypes.NewInt(k), sqltypes.NewIntArray([]int64{x, x * 2})}
	}
	load(t, tbl, row(1, 1), row(2, 2), row(3, 3))
	db = reopen(t, db, Options{Device: storage.RAM, PoolPages: 256, VectorCacheBytes: 1 << 20})
	tbl, _ = db.Table("lab")
	if got, ok, err := tbl.LookupPK([]int64{2}); err != nil || !ok || got[1].A[1] != 4 || !tbl.Resident() {
		t.Fatalf("LookupPK(2) = %v, %v, %v (resident %v); want the first content from the vectors", got, ok, err, tbl.Resident())
	}

	load(t, tbl, row(2, 20), row(9, 9))
	requireOnlySegments(t, dir, "lab")
	if tbl.RowCount() != 2 || tbl.Resident() {
		t.Fatalf("RowCount = %d (resident %v) after the replacing load, want 2 rows read from the segment", tbl.RowCount(), tbl.Resident())
	}
	if got, ok, err := tbl.LookupPK([]int64{2}); err != nil || !ok || got[1].A[1] != 40 {
		t.Fatalf("LookupPK(2) after the replacing load = %v, %v, %v; want the new row", got, ok, err)
	}
	if _, ok, _ := tbl.LookupPK([]int64{1}); ok {
		t.Error("a row of the replaced content is still visible")
	}
	// With the pool dropped the segment itself answers the same.
	db.DropCaches()
	if got, ok, err := tbl.LookupPK([]int64{9}); err != nil || !ok || got[1].A[0] != 9 {
		t.Fatalf("cold LookupPK(9) = %v, %v, %v", got, ok, err)
	}
}

// TestWrittenTableReadsSegmentUntilOpen: only Open admits a table to the
// vector cache. A table loaded through a handle with a budget reads its
// segment — EXPLAIN names the segment tier and no query hits a vector — until
// the directory is opened again, which admits it; replacing an admitted table
// lowers vcache.resident_bytes by exactly its vectors.
func TestWrittenTableReadsSegmentUntilOpen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Device: storage.RAM, PoolPages: 256, VectorCacheBytes: 1 << 20}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"lout", "lin"} {
		tbl, err := db.CreateTable(labelDef(name, "hubs", "tds", "tas"))
		if err != nil {
			t.Fatal(err)
		}
		load(t, tbl, labelRow(1, []int64{7}, []int64{10}, []int64{10}), labelRow(2, []int64{7}, []int64{20}, []int64{20}))
	}
	ea := func(db *DB, tier string) {
		t.Helper()
		st, err := db.Prepare(fmt.Sprintf(exec.SQLV2VEA, "lout", "lin"))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := st.Explain()
		if err != nil || !strings.Contains(plan, tier+"Lookup lout") || !strings.Contains(plan, tier+"Lookup lin") {
			t.Errorf("EXPLAIN = %q, %v; want both tables read by %sLookup", plan, err, tier)
		}
		one := sqltypes.NewInt(1)
		if rel, err := st.Query(one, one, sqltypes.NewInt(0)); err != nil || rel.Rows[0][0].I != 10 {
			t.Fatalf("EA = %v, %v; want 10", rel, err)
		}
	}
	ea(db, "Segment")
	for _, name := range []string{"lout", "lin"} {
		if tbl, _ := db.Table(name); tbl.Resident() {
			t.Errorf("%s, loaded through the handle, is resident", name)
		}
	}
	if vc := db.Registry().Snapshot().VCache; vc.Hits != 0 || vc.Materializations != 0 || vc.Declined != 0 || vc.ResidentBytes != 0 {
		t.Errorf("tables loaded through the handle: vcache = %+v; want nothing admitted, declined or hit", *vc)
	}

	db = reopen(t, db, opts)
	ea(db, "Vector")
	lout, _ := db.Table("lout")
	vc := db.Registry().Snapshot().VCache
	if !lout.Resident() || vc.Materializations != 2 || vc.Hits == 0 {
		t.Fatalf("reopened: lout resident %v, vcache = %+v; want both tables admitted and hit", lout.Resident(), *vc)
	}
	size := lout.vc.Bytes
	load(t, lout, labelRow(1, []int64{7}, []int64{10}, []int64{10}))
	after := db.Registry().Snapshot().VCache
	if lout.Resident() || after.ResidentBytes != vc.ResidentBytes-size {
		t.Errorf("replaced lout: resident %v, %d resident bytes, %d before; want its vectors gone from the count",
			lout.Resident(), after.ResidentBytes, vc.ResidentBytes)
	}
	if after.Materializations != 2 {
		t.Errorf("%d materializations after the load; a load decodes nothing", after.Materializations)
	}
}

// TestTableBulkLoadErrors: every precondition failure must leave the table
// as it was, since validation happens before any byte is written.
func TestTableBulkLoadErrors(t *testing.T) {
	db := newTestDB(t)
	tbl := mkTable(t, db, "t", []string{"k"}, "k", "v")
	rejected := func() {
		t.Helper()
		if err := tbl.BulkLoad([]sqltypes.Row{ints(2, 0), ints(1, 0)}); err == nil {
			t.Error("descending keys accepted")
		}
		if err := tbl.BulkLoad([]sqltypes.Row{ints(1, 0), ints(1, 1)}); err == nil {
			t.Error("duplicate keys accepted")
		}
		if err := tbl.BulkLoad([]sqltypes.Row{ints(1)}); err == nil {
			t.Error("short row accepted")
		}
		if err := tbl.BulkLoad([]sqltypes.Row{
			{sqltypes.NewInt(1), sqltypes.NewText("no")},
		}); err == nil {
			t.Error("type mismatch accepted")
		}
		if err := tbl.BulkLoad([]sqltypes.Row{{sqltypes.NewInt(1), sqltypes.Null}}); err == nil {
			t.Error("NULL accepted")
		}
	}
	rejected()
	if tbl.RowCount() != 0 {
		t.Fatalf("rejected loads stored %d rows", tbl.RowCount())
	}
	load(t, tbl, ints(1, 10))
	rejected()
	if row, ok, err := tbl.LookupPK([]int64{1}); err != nil || !ok || row[1].I != 10 || tbl.RowCount() != 1 {
		t.Fatalf("rejected loads changed a loaded table: %v, %v, %v (%d rows)", row, ok, err, tbl.RowCount())
	}
}
