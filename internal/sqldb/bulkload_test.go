package sqldb

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ptldb/internal/sqldb/exec"
	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/sqldb/storage"
)

// TestTableBulkLoadKeyless: a table without a primary key has no stored form
// and is refused when its definition is validated, before any file exists.
func TestTableBulkLoadKeyless(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Device: storage.RAM})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, err = tryLoad(db, mkTable("plain", nil, "a", "b"), ints(1, 2))
	if err == nil || !strings.Contains(err.Error(), "primary key") {
		t.Fatalf("Load without a key: %v, want a rejection naming the primary key", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("refused table left %d files behind", len(entries))
	}
}

// TestTableBulkLoadCoercesInts checks integer values land in DOUBLE columns
// as floats.
func TestTableBulkLoadCoercesInts(t *testing.T) {
	db := newTestDB(t)
	tbl := load(t, db, mkTable("coerce", []string{"k"}, "k", "x:float"), sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewInt(7)})
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
// working lookups and scans, from the image alone.
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
		load(t, db, mkTable(kind.prefix+"_empty", []string{"k"}, kind.cols...))
		load(t, db, mkTable(kind.prefix+"_single", []string{"k"}, kind.cols...), kind.row)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	requireOnlyImage(t, dir)
	if n := len(imageSegments(t, dir)); n != 4 {
		t.Errorf("the image holds %d segments, want the four tables'", n)
	}

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
		if emptied := load(t, db2, single.Def()); emptied.RowCount() != 0 || single.RowCount() != 1 {
			t.Fatalf("emptying %s_single after reopen: %d rows, the replaced table %d", kind.prefix, emptied.RowCount(), single.RowCount())
		}
	}
}

// requireCommitted fails unless dir holds what the Loads through a handle
// leave behind: nothing before one has succeeded, the image alone after.
func requireCommitted(t *testing.T, dir string, loaded bool) {
	t.Helper()
	if loaded {
		requireOnlyImage(t, dir)
	} else if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("the directory holds %d files before any load (%v); want none", len(entries), err)
	}
}

// TestBulkLoadReplacesTable: a Load of a name the catalog holds makes a new
// table and commits it in a new image, the directory's only file.
// DB.Table and every later Prepare see the new rows; the replaced table does
// not change — a statement prepared on it, and the table itself, keep
// answering the rows they answered, from the vectors it had — and Close
// closes its file with the others.
func TestBulkLoadReplacesTable(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	def := mkTable("lab", []string{"k"}, "k", "xs:arr")
	row := func(k int64, x int32) sqltypes.Row {
		return sqltypes.Row{sqltypes.NewInt(k), sqltypes.NewIntArray([]int32{x, x * 2})}
	}
	load(t, db, def, row(1, 1), row(2, 2), row(3, 3))
	db = reopen(t, db, Options{Device: storage.RAM, PoolPages: 256, VectorCacheBytes: 1 << 20})
	old, _ := db.Table("lab")
	if got, ok, err := old.LookupPK([]int64{2}); err != nil || !ok || got[1].A[1] != 4 || !old.Resident() {
		t.Fatalf("LookupPK(2) = %v, %v, %v (resident %v); want the first content from the vectors", got, ok, err, old.Resident())
	}
	prepared, err := db.Prepare("SELECT k FROM lab WHERE k = $1")
	if err != nil {
		t.Fatal(err)
	}

	tbl := load(t, db, def, row(2, 20), row(9, 9))
	requireOnlyImage(t, dir)
	if now, _ := db.Table("lab"); now != tbl || tbl == old {
		t.Fatal("DB.Table does not return the table the replacing load made")
	}
	if tbl.RowCount() != 2 || tbl.Resident() {
		t.Fatalf("RowCount = %d (resident %v) after the replacing load, want 2 rows read from the segment", tbl.RowCount(), tbl.Resident())
	}
	if got, ok, err := tbl.LookupPK([]int64{2}); err != nil || !ok || got[1].A[1] != 40 {
		t.Fatalf("LookupPK(2) after the replacing load = %v, %v, %v; want the new row", got, ok, err)
	}
	if _, ok, _ := tbl.LookupPK([]int64{1}); ok {
		t.Error("a row of the replaced content is visible in the new table")
	}
	if rel, err := db.Query("SELECT k FROM lab WHERE k = 1"); err != nil || len(rel.Rows) != 0 {
		t.Errorf("a query after the load answers %v, %v; want the new table, without k = 1", rel, err)
	}
	// The replaced table and a statement prepared on it answer as before.
	if got, ok, err := old.LookupPK([]int64{2}); err != nil || !ok || got[1].A[1] != 4 || !old.Resident() || old.RowCount() != 3 {
		t.Errorf("the replaced table answers LookupPK(2) = %v, %v, %v (resident %v, %d rows); want what it answered", got, ok, err, old.Resident(), old.RowCount())
	}
	if rel, err := prepared.Query(sqltypes.NewInt(1)); err != nil || len(rel.Rows) != 1 {
		t.Errorf("the statement prepared before the load answers k = 1 with %v, %v; want the row it read", rel, err)
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
// lowers vcache.resident_bytes by exactly its vectors, and the replacing
// table, written through the handle, reads its segment, while a statement
// prepared before the load keeps answering from the replaced one.
func TestWrittenTableReadsSegmentUntilOpen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Device: storage.RAM, PoolPages: 256, VectorCacheBytes: 1 << 20}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"lout", "lin"} {
		load(t, db, labelDef(name, "hubs", "tds", "tas"), labelRow(1, []int32{7}, []int32{10}, []int32{10}), labelRow(2, []int32{7}, []int32{20}, []int32{20}))
	}
	// eaIs runs EA(1, 1, 0) on st and wants the arrival want, -1 for none.
	eaIs := func(st *Stmt, want int64) {
		t.Helper()
		one := sqltypes.NewInt(1)
		rel, err := st.Query(one, one, sqltypes.NewInt(0))
		if err != nil || len(rel.Rows) != 1 {
			t.Fatalf("EA = %v, %v", rel, err)
		}
		if got := rel.Rows[0][0]; (want < 0) != got.IsNull() || (want >= 0 && got.I != want) {
			t.Errorf("EA = %v; want %d (-1: none)", got, want)
		}
	}
	ea := func(db *DB, loutTier, linTier string, want int64) *Stmt {
		t.Helper()
		st, err := db.Prepare(fmt.Sprintf(exec.SQLV2VEA, "lout", "lin"))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := st.Explain()
		if err != nil || !strings.Contains(plan, loutTier+"Lookup lout") || !strings.Contains(plan, linTier+"Lookup lin") {
			t.Errorf("EXPLAIN = %q, %v; want lout read by %sLookup, lin by %sLookup", plan, err, loutTier, linTier)
		}
		eaIs(st, want)
		return st
	}
	ea(db, "Segment", "Segment", 10)
	for _, name := range []string{"lout", "lin"} {
		if tbl, _ := db.Table(name); tbl.Resident() {
			t.Errorf("%s, loaded through the handle, is resident", name)
		}
	}
	if vc := db.Registry().Snapshot().VCache; vc.Hits != 0 || vc.Materializations != 0 || vc.Declined != 0 || vc.ResidentBytes != 0 {
		t.Errorf("tables loaded through the handle: vcache = %+v; want nothing admitted, declined or hit", *vc)
	}

	db = reopen(t, db, opts)
	before := ea(db, "Vector", "Vector", 10)
	lout, _ := db.Table("lout")
	vc := db.Registry().Snapshot().VCache
	if !lout.Resident() || vc.Materializations != 2 || vc.Hits == 0 {
		t.Fatalf("reopened: lout resident %v, vcache = %+v; want both tables admitted and hit", lout.Resident(), *vc)
	}
	// Stop 1's new label leaves at 15, after lin's tuple: no journey.
	replaced := load(t, db, lout.Def(), labelRow(1, []int32{7}, []int32{15}, []int32{15}))
	after := db.Registry().Snapshot().VCache
	if replaced.Resident() || after.ResidentBytes != vc.ResidentBytes-lout.vc.Bytes {
		t.Errorf("replaced lout: new table resident %v, %d resident bytes, %d before; want the old vectors gone from the count",
			replaced.Resident(), after.ResidentBytes, vc.ResidentBytes)
	}
	if after.Materializations != 2 {
		t.Errorf("%d materializations after the load; a load decodes nothing", after.Materializations)
	}
	ea(db, "Segment", "Vector", -1)
	eaIs(before, 10) // prepared on the replaced lout, which keeps its vectors
}

// TestLoadWritesImage: every Load commits the handle's next image, the
// directory's only file — the handle's tables in the order of their names,
// those the Load did not write byte for byte the segments they were — and the
// same handle goes on answering: each loaded table from the new image, a
// statement prepared before a replacing Load from the table it replaced. A
// Flush after the Loads changes no file; a handle opened before them answers
// from the image it opened, and the directory opens again as the last Load
// left it.
func TestLoadWritesImage(t *testing.T) {
	dir := t.TempDir()
	buildFaultDB(t, dir)
	requireOnlyImage(t, dir)
	old, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256, VectorCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	prepared, err := db.Prepare("SELECT v FROM bad WHERE k = $1")
	if err != nil {
		t.Fatal(err)
	}
	// segments returns the tables of the image in image order and each
	// one's segment.
	segments := func() ([]string, map[string][]byte) {
		t.Helper()
		image, err := os.ReadFile(filepath.Join(dir, ImageName))
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		segs := map[string][]byte{}
		for _, s := range imageSegments(t, dir) {
			names, segs[s.name] = append(names, s.name), image[s.off:s.end]
		}
		return names, segs
	}
	_, before := segments()

	extra := load(t, db, mkTable("extra", []string{"k"}, "k", "v"), ints(1, 10), ints(2, 20))
	requireOnlyImage(t, dir)
	badDef := mkTable("bad", []string{"k"}, "k", "v", "xs:arr")
	bad := load(t, db, badDef, sqltypes.Row{sqltypes.NewInt(7), sqltypes.NewInt(8), sqltypes.NewIntArray([]int32{9})})
	requireOnlyImage(t, dir)
	names, after := segments()
	if strings.Join(names, ",") != "bad,extra,good,names" {
		t.Errorf("the image holds %v; want the handle's four tables in the order of their names", names)
	}
	for _, name := range []string{"good", "names"} {
		if !bytes.Equal(after[name], before[name]) {
			t.Errorf("%s, which no Load wrote, is not the segment it was", name)
		}
	}
	if bytes.Equal(after["bad"], before["bad"]) {
		t.Error("the replacing Load left bad's segment as it was")
	}

	if now, _ := db.Table("bad"); now != bad {
		t.Error("DB.Table does not return the table the replacing Load made")
	}
	if row, ok, err := extra.LookupPK([]int64{2}); err != nil || !ok || row[1].I != 20 {
		t.Errorf("extra(2) = %v, %v, %v; want 20", row, ok, err)
	}
	if rel, err := db.Query("SELECT v FROM bad WHERE k = 7"); err != nil || len(rel.Rows) != 1 || rel.Rows[0][0].I != 8 {
		t.Errorf("bad(7) after the replacing Load = %v, %v; want 8", rel, err)
	}
	if rel, err := prepared.Query(sqltypes.NewInt(123)); err != nil || len(rel.Rows) != 1 || rel.Rows[0][0].I != 369 {
		t.Errorf("the statement prepared before the replacing Load answers bad(123) = %v, %v; want the replaced table's 369", rel, err)
	}

	// A Flush writes nothing: every file stays, byte for byte.
	listing, image := dirListing(t, dir), after
	st, err := os.Stat(filepath.Join(dir, ImageName))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := dirListing(t, dir); got != listing {
		t.Errorf("Flush changed the directory:\n%s\nwas:\n%s", got, listing)
	}
	if again, err := os.Stat(filepath.Join(dir, ImageName)); err != nil || !os.SameFile(again, st) {
		t.Errorf("Flush replaced the image (%v)", err)
	}
	if _, now := segments(); len(now) != len(image) {
		t.Errorf("Flush changed the image's tables: %d, were %d", len(now), len(image))
	} else {
		for name, seg := range image {
			if !bytes.Equal(now[name], seg) {
				t.Errorf("Flush changed %s's segment", name)
			}
		}
	}

	db.DropCaches()
	checkGood := func(db *DB) {
		t.Helper()
		good, _ := db.Table("good")
		if row, ok, err := good.LookupPK([]int64{123}); err != nil || !ok || row[1].I != 369 {
			t.Errorf("good(123) = %v, %v, %v", row, ok, err)
		}
	}
	checkGood(db)
	old.DropCaches()
	checkReads(t, old)

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	checkGood(re)
	if tbl, ok := re.Table("extra"); !ok || tbl.RowCount() != 2 {
		t.Errorf("reopened: extra has %v rows", tbl)
	}
	if tbl, _ := re.Table("bad"); tbl.RowCount() != 1 {
		t.Errorf("reopened: bad has %d rows, want the one reloaded", tbl.RowCount())
	}
}

// TestCloseClosesReplacedFiles: Close closes every file the handle opened —
// the image Open read and the one each Load wrote, those only replaced tables
// read included — counted in the process's descriptor table; nothing is
// closed before, so a replaced table keeps answering until Close.
func TestCloseClosesReplacedFiles(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	def := mkTable("kv", []string{"k"}, "k", "v")
	load(t, db, def, ints(1, 10))
	db = reopen(t, db, Options{Device: storage.RAM, PoolPages: 256})
	before := openFDs(t)
	first, _ := db.Table("kv")
	second := load(t, db, def, ints(1, 20))
	third := load(t, db, def, ints(1, 30))
	if got := openFDs(t) - before; got != 2 {
		t.Errorf("two loads opened %d descriptors, want one each", got)
	}
	for i, tbl := range []*Table{first, second, third} {
		if row, ok, err := tbl.LookupPK([]int64{1}); err != nil || !ok || row[1].I != int64(10*(i+1)) {
			t.Errorf("table %d answers %v, %v, %v; want %d", i, row, ok, err, 10*(i+1))
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if got := openFDs(t) - before; got != -1 {
		t.Errorf("Close left %d descriptors of its own open; want all three images closed", got+1)
	}
	requireOnlyImage(t, dir)
}

// TestFailedLoadLeavesCatalog: a batch that fails in any of its loads enters
// none of them: the catalog, every table and the directory stay as they
// were — the image byte for byte, and nothing beside it — and a retry of the
// same batch succeeds. So does a batch whose image cannot be written (a
// directory stands at image.seg.tmp): the error names the file, and no
// descriptor stays open.
func TestFailedLoadLeavesCatalog(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	kept := load(t, db, mkTable("kept", []string{"k"}, "k", "v"), ints(1, 10))
	image, err := os.ReadFile(filepath.Join(dir, ImageName))
	if err != nil {
		t.Fatal(err)
	}
	unchanged := func(what string) {
		t.Helper()
		if names := db.Tables(); len(names) != 1 {
			t.Errorf("%s: the catalog holds %v; want kept alone", what, names)
		}
		if now, _ := db.Table("kept"); now != kept {
			t.Errorf("%s replaced kept", what)
		}
		if now, err := os.ReadFile(filepath.Join(dir, ImageName)); err != nil || !bytes.Equal(now, image) {
			t.Errorf("%s changed the image (%v)", what, err)
		}
	}
	good := TableLoad{Def: mkTable("good", []string{"k"}, "k"), Rows: rowsOf(ints(1), ints(2))}
	replace := TableLoad{Def: kept.Def(), Rows: rowsOf(ints(1, 99))}
	bad := TableLoad{Def: mkTable("bad", []string{"k"}, "k"), Rows: rowsOf(ints(2), ints(1))}
	if err := db.Load(2, good, replace, bad); err == nil || !strings.Contains(err.Error(), "ascending") {
		t.Fatalf("a batch with an unordered load: %v; want the ordering error", err)
	}
	unchanged("the failed batch")
	requireOnlyImage(t, dir)
	blocked := filepath.Join(dir, ImageName+".tmp")
	if err := os.Mkdir(blocked, 0o755); err != nil {
		t.Fatal(err)
	}
	fds := openFDs(t)
	if err := db.Load(2, good, replace); err == nil || !strings.Contains(err.Error(), ImageName+".tmp") {
		t.Fatalf("a batch with image.seg.tmp unwritable: %v; want the error naming it", err)
	}
	if now := openFDs(t); now != fds {
		t.Errorf("the batch that could not write its image left %d descriptors open", now-fds)
	}
	unchanged("the batch that could not write its image")
	if err := os.Remove(blocked); err != nil {
		t.Fatal(err)
	}
	if err := db.Load(2, good, replace, TableLoad{Def: bad.Def, Rows: rowsOf(ints(1), ints(2))}); err != nil {
		t.Fatalf("the retry: %v", err)
	}
	requireOnlyImage(t, dir)
	if names := db.Tables(); len(names) != 3 {
		t.Errorf("the catalog holds %v after the retry; want good, kept and bad", names)
	}
	now, _ := db.Table("kept")
	if row, ok, err := now.LookupPK([]int64{1}); err != nil || !ok || row[1].I != 99 {
		t.Errorf("kept after the retry answers %v, %v, %v; want 99", row, ok, err)
	}
	if err := db.Load(1, good, good); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("a batch loading one name twice: %v; want a refusal", err)
	}
}

// TestTableBulkLoadErrors: every precondition failure must leave the catalog
// as it was, since validation happens before any byte is written.
func TestTableBulkLoadErrors(t *testing.T) {
	db := newTestDB(t)
	def := mkTable("t", []string{"k"}, "k", "v")
	rejected := func() {
		t.Helper()
		if _, err := tryLoad(db, def, ints(2, 0), ints(1, 0)); err == nil {
			t.Error("descending keys accepted")
		}
		if _, err := tryLoad(db, def, ints(1, 0), ints(1, 1)); err == nil {
			t.Error("duplicate keys accepted")
		}
		if _, err := tryLoad(db, def, ints(1)); err == nil {
			t.Error("short row accepted")
		}
		if _, err := tryLoad(db, def, sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewText("no")}); err == nil {
			t.Error("type mismatch accepted")
		}
		if _, err := tryLoad(db, def, sqltypes.Row{sqltypes.NewInt(1), sqltypes.Null}); err == nil {
			t.Error("NULL accepted")
		}
	}
	rejected()
	if _, ok := db.Table("t"); ok {
		t.Fatal("rejected loads entered the table")
	}
	tbl := load(t, db, def, ints(1, 10))
	rejected()
	if now, _ := db.Table("t"); now != tbl {
		t.Fatal("a rejected load replaced the loaded table")
	}
	if row, ok, err := tbl.LookupPK([]int64{1}); err != nil || !ok || row[1].I != 10 || tbl.RowCount() != 1 {
		t.Fatalf("rejected loads changed a loaded table: %v, %v, %v (%d rows)", row, ok, err, tbl.RowCount())
	}
}
