package sqldb

import (
	"os"
	"strings"
	"testing"

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
// <name>.seg on disk — and under a populated vector cache no reader sees the
// old vectors afterwards. DropTable + CreateTable + BulkLoad starts over. The
// old vectors return their share before the new segment registers, so under a
// budget of exactly the table's vectors the replaced table stays admitted.
func TestBulkLoadReplacesTable(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256, VectorCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl := mkTable(t, db, "lab", []string{"k"}, "k", "xs:arr")
	row := func(k, x int64) sqltypes.Row {
		return sqltypes.Row{sqltypes.NewInt(k), sqltypes.NewIntArray([]int64{x, x * 2})}
	}
	load(t, tbl, row(1, 1), row(2, 2), row(3, 3))
	// Populate both read tiers with the first content.
	if got, ok, err := tbl.LookupPK([]int64{2}); err != nil || !ok || got[1].A[1] != 4 {
		t.Fatalf("LookupPK(2) = %v, %v, %v", got, ok, err)
	}
	vc := db.Registry().VCache
	if vc.Materializations.Load() != 1 || vc.ResidentBytes.Load() == 0 {
		t.Fatalf("first lookup left %d materializations, %d resident bytes; want the table resident",
			vc.Materializations.Load(), vc.ResidentBytes.Load())
	}
	size := vc.ResidentBytes.Load()

	load(t, tbl, row(2, 20), row(9, 9))
	requireOnlySegments(t, dir, "lab")
	if tbl.RowCount() != 2 {
		t.Fatalf("RowCount = %d after the replacing load, want 2", tbl.RowCount())
	}
	if got, ok, err := tbl.LookupPK([]int64{2}); err != nil || !ok || got[1].A[1] != 40 {
		t.Fatalf("LookupPK(2) after the replacing load = %v, %v, %v; want the new row", got, ok, err)
	}
	if _, ok, _ := tbl.LookupPK([]int64{1}); ok {
		t.Error("a row of the replaced content is still visible")
	}
	if vc.Materializations.Load() != 2 {
		t.Errorf("%d materializations, want 2: the replaced table's vectors must not serve the new one", vc.Materializations.Load())
	}
	// With the cache and the pool dropped the segment itself answers the same.
	if err := db.DropCaches(); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := tbl.LookupPK([]int64{9}); err != nil || !ok || got[1].A[0] != 9 {
		t.Fatalf("cold LookupPK(9) = %v, %v, %v", got, ok, err)
	}

	if err := db.DropTable("lab"); err != nil {
		t.Fatal(err)
	}
	requireOnlySegments(t, dir)
	if got := vc.ResidentBytes.Load(); got != 0 {
		t.Errorf("%d vector bytes resident after the table was dropped", got)
	}
	tbl = mkTable(t, db, "lab", []string{"k"}, "k", "xs:arr")
	load(t, tbl, row(4, 4), row(5, 5))
	if got, ok, err := tbl.LookupPK([]int64{5}); err != nil || !ok || got[1].A[0] != 5 || tbl.RowCount() != 2 {
		t.Fatalf("recreated table: LookupPK(5) = %v, %v, %v; RowCount %d", got, ok, err, tbl.RowCount())
	}

	exact, err := Open(t.TempDir(), Options{Device: storage.RAM, PoolPages: 256, VectorCacheBytes: size})
	if err != nil {
		t.Fatal(err)
	}
	defer exact.Close()
	tbl = mkTable(t, exact, "lab", []string{"k"}, "k", "xs:arr")
	vc = exact.Registry().VCache
	for _, x := range []int64{1, 10} {
		load(t, tbl, row(1, x), row(2, x+1), row(3, x+2))
		if got, ok, err := tbl.LookupPK([]int64{2}); err != nil || !ok || got[1].A[0] != x+1 {
			t.Fatalf("budget of exactly the table: LookupPK(2) = %v, %v, %v; want %d", got, ok, err, x+1)
		}
	}
	if d, m, r := vc.Declined.Load(), vc.Materializations.Load(), vc.ResidentBytes.Load(); d != 0 || m != 2 || r != size {
		t.Errorf("budget of exactly the table: %d declined, %d materializations, %d resident bytes; want 0, 2, %d", d, m, r, size)
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
