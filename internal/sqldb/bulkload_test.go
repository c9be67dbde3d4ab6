package sqldb

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/sqldb/storage"
)

// TestTableBulkLoadKeyless checks the keyless fallback keeps insertion order.
func TestTableBulkLoadKeyless(t *testing.T) {
	db := newTestDB(t)
	tbl := mkTable(t, db, "plain", nil, "a", "b")
	rows := []sqltypes.Row{ints(3, 30), ints(1, 10), ints(2, 20)}
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	var got [][2]int64
	if err := tbl.Scan(func(r sqltypes.Row) error {
		got = append(got, [2]int64{r[0].I, r[1].I})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := [][2]int64{{3, 30}, {1, 10}, {2, 20}}
	if len(got) != len(want) {
		t.Fatalf("scan = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan = %v, want %v", got, want)
		}
	}
}

// TestTableBulkLoadCoercesInts checks integer values land in DOUBLE columns
// as floats, matching Insert.
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

// TestTableBulkLoadTinyReopen bulk-loads zero-row and one-row tables in both
// forms — all-BIGINT rows become segments, the DOUBLE column keeps the other
// pair heap + B+tree — and cycles the database through Close/Open: all four
// must come back valid, with correct counts, working lookups and scans. The
// heap pair still accepts inserts; the segment pair is immutable.
func TestTableBulkLoadTinyReopen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Device: storage.RAM, PoolPages: 256}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, form := range []struct{ prefix, third string }{{"seg", "x"}, {"heap", "x:float"}} {
		empty := mkTable(t, db, form.prefix+"_empty", []string{"k"}, "k", "v", form.third)
		if err := empty.BulkLoad(nil); err != nil {
			t.Fatalf("BulkLoad(nil): %v", err)
		}
		single := mkTable(t, db, form.prefix+"_single", []string{"k"}, "k", "v", form.third)
		if err := single.BulkLoad([]sqltypes.Row{ints(7, 70, 1)}); err != nil {
			t.Fatalf("BulkLoad(1 row): %v", err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	for _, prefix := range []string{"seg", "heap"} {
		empty, ok := db2.Table(prefix + "_empty")
		if !ok {
			t.Fatal("empty table missing after reopen")
		}
		single, ok := db2.Table(prefix + "_single")
		if !ok {
			t.Fatal("single table missing after reopen")
		}
		if _, isSeg := single.form.(*segForm); isSeg != (prefix == "seg") {
			t.Fatalf("%s_single reopened as %T", prefix, single.form)
		}
		if empty.RowCount() != 0 || single.RowCount() != 1 {
			t.Fatalf("RowCounts after reopen = %d, %d; want 0, 1", empty.RowCount(), single.RowCount())
		}
		if _, ok, err := empty.LookupPK([]int64{7}); err != nil || ok {
			t.Fatalf("LookupPK on reopened empty table = %v, %v", ok, err)
		}
		row, ok, err := single.LookupPK([]int64{7})
		if err != nil || !ok || row[1].I != 70 {
			t.Fatalf("LookupPK on reopened single table = %v, %v, %v", row, ok, err)
		}
		rows := 0
		if err := empty.Scan(func(sqltypes.Row) error { rows++; return nil }); err != nil {
			t.Fatal(err)
		}
		if rows != 0 {
			t.Fatalf("scan of reopened empty table saw %d rows", rows)
		}
		for _, tbl := range []*Table{empty, single} {
			err := tbl.Insert(ints(8, 80, 1))
			if prefix == "seg" {
				if !errors.Is(err, ErrImmutable) {
					t.Fatalf("%s: Insert into a segment table = %v, want ErrImmutable", tbl.Def().Name, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: Insert after reopen: %v", tbl.Def().Name, err)
			}
			if row, ok, err := tbl.LookupPK([]int64{8}); err != nil || !ok || row[1].I != 80 {
				t.Fatalf("%s: LookupPK(8) after insert = %v, %v, %v", tbl.Def().Name, row, ok, err)
			}
		}
	}
}

// TestSegmentTableImmutable: once BulkLoad has made a table a segment, every
// write is refused — point writes with ErrImmutable, a second BulkLoad by the
// segment's own row count — the table stays readable, only <name>.seg is on
// disk, and DropTable + BulkLoad replaces it.
func TestSegmentTableImmutable(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256, VectorCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl := mkTable(t, db, "lab", []string{"k"}, "k", "xs:arr")
	row := func(k int64) sqltypes.Row {
		return sqltypes.Row{sqltypes.NewInt(k), sqltypes.NewIntArray([]int64{k, k * 2})}
	}
	if err := tbl.BulkLoad([]sqltypes.Row{row(1), row(2), row(3)}); err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{".heap", ".idx"} {
		if _, err := os.Stat(filepath.Join(dir, "lab"+suffix)); !os.IsNotExist(err) {
			t.Errorf("lab%s left behind by a segment bulk load (stat: %v)", suffix, err)
		}
	}
	if err := tbl.Insert(row(4)); !errors.Is(err, ErrImmutable) {
		t.Errorf("Insert = %v, want ErrImmutable", err)
	}
	if err := tbl.ReplaceByPK(row(2)); !errors.Is(err, ErrImmutable) {
		t.Errorf("ReplaceByPK = %v, want ErrImmutable", err)
	}
	if err := tbl.BulkLoad([]sqltypes.Row{row(9)}); err == nil || !strings.Contains(err.Error(), "3 rows stored") {
		t.Errorf("BulkLoad into a loaded segment table = %v, want the empty-table rejection", err)
	}
	if tbl.RowCount() != 3 {
		t.Fatalf("RowCount = %d after refused writes, want 3", tbl.RowCount())
	}
	if got, ok, err := tbl.LookupPK([]int64{2}); err != nil || !ok || got[1].A[1] != 4 {
		t.Fatalf("LookupPK(2) after refused writes = %v, %v, %v", got, ok, err)
	}
	if _, ok, _ := tbl.LookupPK([]int64{4}); ok {
		t.Error("refused Insert is visible")
	}

	if err := db.DropTable("lab"); err != nil {
		t.Fatal(err)
	}
	tbl = mkTable(t, db, "lab", []string{"k"}, "k", "xs:arr")
	if err := tbl.BulkLoad([]sqltypes.Row{row(4), row(5)}); err != nil {
		t.Fatalf("BulkLoad after DropTable: %v", err)
	}
	if got, ok, err := tbl.LookupPK([]int64{5}); err != nil || !ok || got[1].A[0] != 5 || tbl.RowCount() != 2 {
		t.Fatalf("replaced table: LookupPK(5) = %v, %v, %v; RowCount %d", got, ok, err, tbl.RowCount())
	}
}

// TestTableBulkLoadErrors: every precondition failure must leave the table
// empty, since validation happens before any row is stored.
func TestTableBulkLoadErrors(t *testing.T) {
	db := newTestDB(t)
	tbl := mkTable(t, db, "t", []string{"k"}, "k", "v")

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
	if tbl.RowCount() != 0 {
		t.Fatalf("rejected loads stored %d rows", tbl.RowCount())
	}

	if err := tbl.Insert(ints(1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.BulkLoad([]sqltypes.Row{ints(2, 20)}); err == nil {
		t.Error("bulk load into non-empty table accepted")
	}
}
