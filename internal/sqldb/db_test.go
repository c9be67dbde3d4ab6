package sqldb

import (
	"sort"
	"strings"
	"testing"

	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/sqldb/storage"
)

func newTestDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func mkTable(t *testing.T, db *DB, name string, pk []string, cols ...string) *Table {
	t.Helper()
	def := TableDef{Name: name, PK: pk}
	for _, c := range cols {
		parts := strings.SplitN(c, ":", 2)
		typ := sqltypes.Int64
		if len(parts) == 2 {
			switch parts[1] {
			case "arr":
				typ = sqltypes.IntArray
			case "text":
				typ = sqltypes.Text
			case "float":
				typ = sqltypes.Float64
			}
		}
		def.Columns = append(def.Columns, ColumnDef{Name: parts[0], Type: typ})
	}
	tbl, err := db.CreateTable(def)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// reopen closes db and opens its directory again with opts: what a writer
// loaded through db is then admitted to the vector cache as Open admits it.
func reopen(t *testing.T, db *DB, opts Options) *DB {
	t.Helper()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err := Open(db.dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// load makes rows the table's content the one way a table is written: sorted
// by primary key, then bulk-loaded.
func load(t testing.TB, tbl *Table, rows ...sqltypes.Row) {
	t.Helper()
	sort.SliceStable(rows, func(a, b int) bool {
		for _, ci := range tbl.PKCols() {
			if rows[a][ci].I != rows[b][ci].I {
				return rows[a][ci].I < rows[b][ci].I
			}
		}
		return false
	})
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
}

// numbered prefixes each row with its position: the key (column "n") of test
// tables whose own columns have no natural one.
func numbered(rows ...sqltypes.Row) []sqltypes.Row {
	for i, r := range rows {
		rows[i] = append(sqltypes.Row{sqltypes.NewInt(int64(i))}, r...)
	}
	return rows
}

func ints(vs ...int64) sqltypes.Row {
	r := make(sqltypes.Row, len(vs))
	for i, v := range vs {
		r[i] = sqltypes.NewInt(v)
	}
	return r
}

// queryInts runs a query and returns the result as int64 rows, with NULLs
// rendered as the sentinel -999999.
func queryInts(t *testing.T, db *DB, q string, params ...sqltypes.Value) [][]int64 {
	t.Helper()
	rel, err := db.Query(q, params...)
	if err != nil {
		t.Fatalf("Query(%s): %v", q, err)
	}
	out := make([][]int64, len(rel.Rows))
	for i, row := range rel.Rows {
		out[i] = make([]int64, len(row))
		for j, v := range row {
			if v.IsNull() {
				out[i][j] = -999999
				continue
			}
			n, err := v.AsInt()
			if err != nil {
				t.Fatalf("row %d col %d: %v", i, j, err)
			}
			out[i][j] = n
		}
	}
	return out
}

func eqRows(t *testing.T, got, want [][]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d rows %v, want %d rows %v", len(got), got, len(want), want)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("row %d: got %v, want %v", i, got[i], want[i])
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("row %d: got %v, want %v", i, got[i], want[i])
			}
		}
	}
}

func TestCreateTableValidation(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.CreateTable(TableDef{Name: ""}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := db.CreateTable(TableDef{Name: "t"}); err == nil {
		t.Error("no columns accepted")
	}
	if _, err := db.CreateTable(TableDef{Name: "t",
		Columns: []ColumnDef{{Name: "a", Type: sqltypes.Int64}}, PK: []string{"b"}}); err == nil {
		t.Error("unknown PK column accepted")
	}
	if _, err := db.CreateTable(TableDef{Name: "t",
		Columns: []ColumnDef{{Name: "a", Type: sqltypes.IntArray}}, PK: []string{"a"}}); err == nil {
		t.Error("array PK accepted")
	}
	if _, err := db.CreateTable(TableDef{Name: "t",
		Columns: []ColumnDef{{Name: "a", Type: sqltypes.Int64}}}); err == nil {
		t.Error("keyless table accepted")
	}
	if _, err := db.CreateTable(TableDef{Name: "t", PK: []string{"a", "b", "c"}, Columns: []ColumnDef{
		{Name: "a", Type: sqltypes.Int64}, {Name: "b", Type: sqltypes.Int64}, {Name: "c", Type: sqltypes.Int64}}}); err == nil {
		t.Error("three-column PK accepted")
	}
	if names := db.Tables(); len(names) != 0 {
		t.Errorf("rejected definitions left tables %v", names)
	}
	mkTable(t, db, "t", []string{"a"}, "a")
	if _, err := db.CreateTable(TableDef{Name: "T", PK: []string{"a"},
		Columns: []ColumnDef{{Name: "a", Type: sqltypes.Int64}}}); err == nil {
		t.Error("duplicate (case-insensitive) table accepted")
	}
}

// TestInsertValidationAndLookup: what a table accepts as its rows — every
// column kind, no duplicate key, the declared arity and types, no NULL — and
// that a refused load stores nothing.
func TestInsertValidationAndLookup(t *testing.T) {
	db := newTestDB(t)
	tbl := mkTable(t, db, "t", []string{"id"}, "id", "xs:arr", "name:text", "w:float")
	row := func(id int64) sqltypes.Row {
		return sqltypes.Row{sqltypes.NewInt(id), sqltypes.NewIntArray([]int64{10, 20}), sqltypes.NewText("one"), sqltypes.NewFloat(0.5)}
	}
	if err := tbl.BulkLoad([]sqltypes.Row{row(1), row(1)}); err == nil {
		t.Error("duplicate PK accepted")
	}
	if err := tbl.BulkLoad([]sqltypes.Row{row(1), ints(2)}); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := tbl.BulkLoad([]sqltypes.Row{{sqltypes.NewText("x"), row(1)[1], row(1)[2], row(1)[3]}}); err == nil {
		t.Error("type mismatch accepted")
	}
	for ci := range row(1) {
		withNull := row(1)
		withNull[ci] = sqltypes.Null
		if err := tbl.BulkLoad([]sqltypes.Row{withNull}); err == nil {
			t.Errorf("NULL in column %d accepted", ci)
		}
	}
	if tbl.RowCount() != 0 {
		t.Fatalf("refused loads stored %d rows", tbl.RowCount())
	}
	load(t, tbl, row(1))
	got, ok, err := tbl.LookupPK([]int64{1})
	if err != nil || !ok {
		t.Fatalf("LookupPK: %v %v", ok, err)
	}
	if got[2].S != "one" || len(got[1].A) != 2 || got[3].F != 0.5 {
		t.Errorf("row = %v", got)
	}
	if _, ok, _ := tbl.LookupPK([]int64{99}); ok {
		t.Error("phantom row")
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(TableDef{Name: "kv", PK: []string{"k"},
		Columns: []ColumnDef{{Name: "k", Type: sqltypes.Int64}, {Name: "v", Type: sqltypes.IntArray}}})
	if err != nil {
		t.Fatal(err)
	}
	var rows []sqltypes.Row
	for i := int64(0); i < 500; i++ {
		rows = append(rows, sqltypes.Row{sqltypes.NewInt(i), sqltypes.NewIntArray([]int64{i, i * 2})})
	}
	load(t, tbl, rows...)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, ok := db2.Table("kv")
	if !ok {
		t.Fatal("table lost after reopen")
	}
	if tbl2.RowCount() != 500 {
		t.Fatalf("RowCount = %d", tbl2.RowCount())
	}
	row, ok, err := tbl2.LookupPK([]int64{123})
	if err != nil || !ok || row[1].A[1] != 246 {
		t.Fatalf("lookup after reopen: %v %v %v", row, ok, err)
	}
	got := queryInts(t, db2, "SELECT UNNEST(v[2:2]) FROM kv WHERE k = $1", sqltypes.NewInt(7))
	eqRows(t, got, [][]int64{{14}})
}

func TestBasicSelect(t *testing.T) {
	db := newTestDB(t)
	tbl := mkTable(t, db, "nums", []string{"a"}, "a", "b")
	var rows []sqltypes.Row
	for i := int64(0); i < 10; i++ {
		rows = append(rows, ints(i, i*i))
	}
	load(t, tbl, rows...)
	eqRows(t, queryInts(t, db, "SELECT a, b FROM nums WHERE a >= 7 ORDER BY a DESC"),
		[][]int64{{9, 81}, {8, 64}, {7, 49}})
	eqRows(t, queryInts(t, db, "SELECT b FROM nums WHERE a = $1", sqltypes.NewInt(4)),
		[][]int64{{16}})
	eqRows(t, queryInts(t, db, "SELECT COUNT(*), MIN(b), MAX(b) FROM nums"),
		[][]int64{{10, 0, 81}})
	eqRows(t, queryInts(t, db, "SELECT a FROM nums ORDER BY a LIMIT 3"),
		[][]int64{{0}, {1}, {2}})
	// Arithmetic and integer division semantics.
	eqRows(t, queryInts(t, db, "SELECT a - 1, a / 2, FLOOR(b / 10) FROM nums WHERE a = 7"),
		[][]int64{{6, 3, 4}})
}

// wantRefused runs q, which uses a construct outside the dialect, and checks
// that DB.Query — the console's entry — fails with an error naming it.
func wantRefused(t *testing.T, db *DB, q, names string) {
	t.Helper()
	if rel, err := db.Query(q); err == nil || rel != nil || !strings.Contains(err.Error(), names) {
		t.Errorf("Query(%q) = %v, %v; want an error naming %s", q, rel, err, names)
	}
}

// TestSelectWithoutFrom: every statement of the workload reads a table; a
// SELECT with no FROM is outside the dialect.
func TestSelectWithoutFrom(t *testing.T) {
	db := newTestDB(t)
	wantRefused(t, db, "SELECT 1 - 2, 3", "FROM")
}

func TestUnnestParallel(t *testing.T) {
	db := newTestDB(t)
	tbl := mkTable(t, db, "lab", []string{"v"}, "v", "hubs:arr", "tds:arr")
	load(t, tbl, sqltypes.Row{sqltypes.NewInt(1),
		sqltypes.NewIntArray([]int64{10, 20, 30}), sqltypes.NewIntArray([]int64{100, 200, 300})})
	got := queryInts(t, db, "SELECT v, UNNEST(hubs) AS h, UNNEST(tds) AS d FROM lab WHERE v=1")
	eqRows(t, got, [][]int64{{1, 10, 100}, {1, 20, 200}, {1, 30, 300}})
	// Slices clamp like PostgreSQL.
	got = queryInts(t, db, "SELECT UNNEST(hubs[2:99]) FROM lab WHERE v=1")
	eqRows(t, got, [][]int64{{20}, {30}})
	// Empty slice unnests to zero rows.
	got = queryInts(t, db, "SELECT UNNEST(hubs[3:2]) FROM lab WHERE v=1")
	eqRows(t, got, nil)
}

func TestGroupByWithOrderOnAggregate(t *testing.T) {
	db := newTestDB(t)
	tbl := mkTable(t, db, "obs", []string{"n"}, "n", "grp", "val")
	load(t, tbl, numbered(ints(1, 5), ints(1, 3), ints(2, 9), ints(2, 1), ints(3, 4))...)
	got := queryInts(t, db, "SELECT grp, MIN(val) FROM obs GROUP BY grp ORDER BY MIN(val), grp")
	eqRows(t, got, [][]int64{{2, 1}, {1, 3}, {3, 4}})
	got = queryInts(t, db, "SELECT grp, MAX(val) FROM obs GROUP BY grp ORDER BY MAX(val) DESC LIMIT 2")
	eqRows(t, got, [][]int64{{2, 9}, {1, 5}})
	// Aggregate over empty input without GROUP BY yields a NULL row.
	got = queryInts(t, db, "SELECT MIN(val) FROM obs WHERE val > 100")
	eqRows(t, got, [][]int64{{-999999}})
	// ... but with GROUP BY yields no rows.
	got = queryInts(t, db, "SELECT grp, MIN(val) FROM obs WHERE val > 100 GROUP BY grp")
	eqRows(t, got, nil)
}

func TestUnionDedupAndAll(t *testing.T) {
	db := newTestDB(t)
	tbl := mkTable(t, db, "u", []string{"n"}, "n", "x")
	load(t, tbl, numbered(ints(1), ints(2))...)
	got := queryInts(t, db, "SELECT x FROM (SELECT x FROM u UNION SELECT x FROM u) s ORDER BY x")
	eqRows(t, got, [][]int64{{1}, {2}})
	got = queryInts(t, db, "SELECT x FROM (SELECT x FROM u UNION ALL SELECT x FROM u) s ORDER BY x")
	eqRows(t, got, [][]int64{{1}, {1}, {2}, {2}})
	// Parenthesized arms with inner LIMIT.
	got = queryInts(t, db, "SELECT x FROM ((SELECT x FROM u ORDER BY x LIMIT 1) UNION (SELECT x FROM u ORDER BY x DESC LIMIT 1)) s ORDER BY x")
	eqRows(t, got, [][]int64{{1}, {2}})
	// A set operation takes no ORDER BY of its own.
	wantRefused(t, db, "SELECT x FROM u UNION SELECT x FROM u ORDER BY x", `"ORDER"`)
}

func TestCTEAndHashJoin(t *testing.T) {
	db := newTestDB(t)
	a := mkTable(t, db, "a", []string{"id"}, "id", "k")
	b := mkTable(t, db, "b", []string{"id"}, "id", "k", "w")
	load(t, a, ints(1, 10), ints(2, 20), ints(3, 10))
	load(t, b, ints(1, 10, 111), ints(2, 30, 222))
	got := queryInts(t, db, `
WITH aa AS (SELECT id, k FROM a)
SELECT aa.id, b.w FROM aa, b WHERE aa.k = b.k ORDER BY aa.id`)
	eqRows(t, got, [][]int64{{1, 111}, {3, 111}})
}

func TestIndexNestedLoopJoin(t *testing.T) {
	db := newTestDB(t)
	dim := mkTable(t, db, "dim", []string{"h", "bucket"}, "h", "bucket", "payload")
	var dims []sqltypes.Row
	for h := int64(0); h < 5; h++ {
		for bk := int64(0); bk < 4; bk++ {
			dims = append(dims, ints(h, bk, h*100+bk))
		}
	}
	load(t, dim, dims...)
	facts := mkTable(t, db, "facts", []string{"id"}, "id", "h", "t")
	load(t, facts, ints(1, 2, 7200), ints(2, 4, 3601),
		ints(3, 9, 0)) // no matching dim row
	got := queryInts(t, db, `
WITH f AS (SELECT id, h, t FROM facts)
SELECT f.id, d.payload FROM dim d, f
WHERE d.h = f.h AND d.bucket = FLOOR(f.t/3600)
ORDER BY f.id`)
	eqRows(t, got, [][]int64{{1, 202}, {2, 401}})
}

func TestThreeValuedLogicAndNulls(t *testing.T) {
	db := newTestDB(t)
	tbl := mkTable(t, db, "n", []string{"k"}, "k", "x")
	load(t, tbl, ints(0, 0), ints(1, 1))
	// A stored row holds no NULL; MIN over no rows makes one.
	const nullable = "((SELECT MIN(x) AS y FROM n WHERE x > 5) UNION ALL (SELECT MIN(x) AS y FROM n WHERE x > 0)) s"
	eqRows(t, queryInts(t, db, "SELECT y FROM "+nullable), [][]int64{{-999999}, {1}})
	// NULL comparisons exclude rows.
	got := queryInts(t, db, "SELECT y FROM "+nullable+" WHERE y >= 0")
	eqRows(t, got, [][]int64{{1}})
	// Aggregates skip NULLs; COUNT(*) does not.
	got = queryInts(t, db, "SELECT COUNT(*), MIN(y), MAX(y) FROM "+nullable)
	eqRows(t, got, [][]int64{{2, 1, 1}})
}

func TestQueryErrors(t *testing.T) {
	db := newTestDB(t)
	tbl := mkTable(t, db, "t", []string{"a"}, "a", "xs:arr")
	load(t, tbl, sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewIntArray([]int64{1})})
	for _, q := range []string{
		"SELECT nope FROM t",
		"SELECT a FROM missing",
		"SELECT UNNEST(a) FROM t",          // unnest of scalar
		"SELECT UNNEST(xs) - 1 FROM t",     // unnest not top-level
		"SELECT MIN(a), UNNEST(xs) FROM t", // aggregate + unnest
		"SELECT a FROM t LIMIT -1",
		"SELECT a FROM t WHERE a = $2", // missing param
		"SELECT a, b FROM t UNION SELECT a FROM t",
		"SELECT 1/0 FROM t",
	} {
		if _, err := db.Query(q, sqltypes.NewInt(1)); err == nil {
			t.Errorf("Query(%q) succeeded", q)
		}
	}
}

// TestPaperCode1OnExampleData loads the lout/lin tables of the paper's
// Table 2/3 (augmented labels of Figure 1) and runs Code 1 verbatim.
func TestPaperCode1OnExampleData(t *testing.T) {
	db := newTestDB(t)
	lout := mkTable(t, db, "lout", []string{"v"}, "v", "hubs:arr", "tds:arr", "tas:arr")
	lin := mkTable(t, db, "lin", []string{"v"}, "v", "hubs:arr", "tds:arr", "tas:arr")

	// From Table 1 of the paper (times in 100 s units), stops 0, 1 and 4.
	label := func(v int64, hubs, tds, tas []int64) sqltypes.Row {
		return sqltypes.Row{sqltypes.NewInt(v),
			sqltypes.NewIntArray(hubs), sqltypes.NewIntArray(tds), sqltypes.NewIntArray(tas)}
	}
	load(t, lout,
		label(0, []int64{0}, []int64{360}, []int64{360}),
		label(1, []int64{0, 1, 1}, []int64{324, 324, 396}, []int64{360, 324, 396}),
		label(4, []int64{0, 4}, []int64{324, 396}, []int64{360, 396}))
	load(t, lin,
		label(0, []int64{0}, []int64{360}, []int64{360}),
		label(1, []int64{0, 1, 1}, []int64{360, 324, 396}, []int64{396, 324, 396}),
		label(4, []int64{0, 4}, []int64{360, 396}, []int64{396, 396}))

	const code1EA = `
WITH outp AS
  (SELECT UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta
   FROM lout WHERE v=$1),
inp AS
  (SELECT UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta
   FROM lin WHERE v=$2)
SELECT MIN(inp.ta)
FROM outp, inp
WHERE outp.hub=inp.hub AND outp.ta<=inp.td AND outp.td>=$3`

	// EA(1, 4, t=300): journey 1@324 -> 0@360 joins 0@360 -> 4@396.
	got := queryInts(t, db, code1EA, sqltypes.NewInt(1), sqltypes.NewInt(4), sqltypes.NewInt(300))
	eqRows(t, got, [][]int64{{396}})
	// The paper's worked example: EA(1, 1, 324) = 324 via the dummy tuples.
	got = queryInts(t, db, code1EA, sqltypes.NewInt(1), sqltypes.NewInt(1), sqltypes.NewInt(324))
	eqRows(t, got, [][]int64{{324}})
	// No journey after the last departure: NULL.
	got = queryInts(t, db, code1EA, sqltypes.NewInt(1), sqltypes.NewInt(4), sqltypes.NewInt(397))
	eqRows(t, got, [][]int64{{-999999}})
}

func TestDropCachesForcesMisses(t *testing.T) {
	db := newTestDB(t)
	tbl := mkTable(t, db, "t", []string{"a"}, "a", "b")
	var rows []sqltypes.Row
	for i := int64(0); i < 100; i++ {
		rows = append(rows, ints(i, i))
	}
	load(t, tbl, rows...)
	queryInts(t, db, "SELECT b FROM t WHERE a=50")
	db.DropCaches()
	m0 := db.Pool().Metrics().Misses.Load()
	queryInts(t, db, "SELECT b FROM t WHERE a=50")
	if m1 := db.Pool().Metrics().Misses.Load(); m1 == m0 {
		t.Error("query after DropCaches hit only cached pages")
	}
}

func TestPreparedStatement(t *testing.T) {
	db := newTestDB(t)
	tbl := mkTable(t, db, "t", []string{"a"}, "a", "b")
	load(t, tbl, ints(1, 10), ints(2, 20))
	st, err := db.Prepare("SELECT b FROM t WHERE a = $1")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int64{10, 20} {
		rel, err := st.Query(sqltypes.NewInt(int64(i + 1)))
		if err != nil || len(rel.Rows) != 1 || rel.Rows[0][0].I != want {
			t.Fatalf("prepared exec %d: %v %v", i, rel, err)
		}
	}
	if _, err := db.Prepare("SELECT FROM"); err == nil {
		t.Error("Prepare of invalid SQL succeeded")
	}
}

func TestSizeOnDisk(t *testing.T) {
	db := newTestDB(t)
	tbl := mkTable(t, db, "t", []string{"a"}, "a", "b")
	load(t, tbl, ints(1, 1))
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	n, err := db.SizeOnDisk()
	if err != nil || n <= 0 {
		t.Errorf("SizeOnDisk = %d, %v", n, err)
	}
}

// TestHashJoinTextKeysFallback exercises the generic encoded-key join path:
// single-column joins on TEXT keys cannot use the integer fast path.
// TestHashJoinTextKeysFallback: the join matches BIGINT columns, as every join
// of the workload does. A TEXT key is an error naming the type; the
// encoded-key join that once took it is gone.
func TestHashJoinTextKeysFallback(t *testing.T) {
	db := newTestDB(t)
	a := mkTable(t, db, "ta", []string{"id"}, "id", "name:text")
	b := mkTable(t, db, "tb", []string{"id"}, "id", "name:text", "w")
	load(t, a, sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewText("x")},
		sqltypes.Row{sqltypes.NewInt(2), sqltypes.NewText("y")})
	load(t, b, sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewText("y"), sqltypes.NewInt(7)})
	wantRefused(t, db, "SELECT ta.id, tb.w FROM ta, tb WHERE ta.name = tb.name", "TEXT is not numeric")
	// TEXT values still project and filter by key.
	rel, err := db.Query("SELECT name FROM ta WHERE id = 2")
	if err != nil || len(rel.Rows) != 1 || rel.Rows[0][0].S != "y" {
		t.Errorf("TEXT projection = %v, %v", rel, err)
	}
}

// TestFusedPredicateMatchesPostFilter checks that the WHERE clause fused
// into the final join gives the same result as explicit post-filtering via a
// wrapping subquery.
func TestFusedPredicateMatchesPostFilter(t *testing.T) {
	db := newTestDB(t)
	a := mkTable(t, db, "fa", []string{"id"}, "id", "k", "x")
	b := mkTable(t, db, "fb", []string{"id"}, "id", "k", "y")
	var as, bs []sqltypes.Row
	for i := int64(0); i < 20; i++ {
		as = append(as, ints(i, i%5, i*3))
		bs = append(bs, ints(i, i%5, i*7))
	}
	load(t, a, as...)
	load(t, b, bs...)
	fused := queryInts(t, db,
		"SELECT fa.id, fb.id FROM fa, fb WHERE fa.k = fb.k AND fa.x <= fb.y AND fa.id < fb.id ORDER BY fa.id, fb.id")
	wrapped := queryInts(t, db, `
SELECT id1, id2 FROM
  (SELECT fa.id AS id1, fb.id AS id2, fa.x AS x, fb.y AS y FROM fa, fb WHERE fa.k = fb.k) j
WHERE x <= y AND id1 < id2 ORDER BY id1, id2`)
	eqRows(t, fused, wrapped)
	if len(fused) == 0 {
		t.Fatal("test degenerate: no joined rows")
	}
}

// TestThreeWayJoin exercises repeated folding with the predicate fused only
// into the last join.
func TestThreeWayJoin(t *testing.T) {
	db := newTestDB(t)
	a := mkTable(t, db, "j1", []string{"id"}, "id", "k")
	b := mkTable(t, db, "j2", []string{"id"}, "id", "k", "m")
	c := mkTable(t, db, "j3", []string{"id"}, "id", "m", "w")
	load(t, a, ints(1, 10), ints(2, 20))
	load(t, b, ints(1, 10, 100), ints(2, 20, 200))
	load(t, c, ints(1, 100, 111), ints(2, 200, 222))
	got := queryInts(t, db, `
SELECT j1.id, j3.w FROM j1, j2, j3
WHERE j1.k = j2.k AND j2.m = j3.m AND j3.w > 111
ORDER BY j1.id`)
	eqRows(t, got, [][]int64{{2, 222}})
}

// TestIndexJoinWithFusedPredicate verifies the index-nested-loop path also
// honours the fused residual WHERE.
func TestIndexJoinWithFusedPredicate(t *testing.T) {
	db := newTestDB(t)
	dim := mkTable(t, db, "dim2", []string{"h"}, "h", "payload")
	var dims []sqltypes.Row
	for h := int64(0); h < 10; h++ {
		dims = append(dims, ints(h, h*10))
	}
	load(t, dim, dims...)
	got := queryInts(t, db, `
WITH f AS (SELECT 1 AS one FROM dim2 WHERE h = 0)
SELECT d.payload FROM dim2 d, f WHERE d.h = 5 - f.one AND d.payload > 100`)
	eqRows(t, got, nil)
	got = queryInts(t, db, `
WITH f AS (SELECT 1 AS one FROM dim2 WHERE h = 0)
SELECT d.payload FROM dim2 d, f WHERE d.h = 5 - f.one AND d.payload > 10`)
	eqRows(t, got, [][]int64{{40}})
}

// TestAggregateEmptyGroupedUnionArm regression-tests the case that once
// mis-routed an aggregated-but-empty arm to the non-aggregate ORDER BY path.
func TestAggregateEmptyGroupedUnionArm(t *testing.T) {
	db := newTestDB(t)
	tbl := mkTable(t, db, "eg", []string{"n"}, "n", "grp", "val")
	load(t, tbl, numbered(ints(1, 5))...)
	got := queryInts(t, db, `
SELECT grp, v FROM (
  (SELECT grp, MIN(val) AS v FROM eg WHERE val > 100 GROUP BY grp ORDER BY MIN(val), grp LIMIT 3)
  UNION
  (SELECT grp, MIN(val) AS v FROM eg GROUP BY grp ORDER BY MIN(val), grp LIMIT 3)
) u ORDER BY grp`)
	eqRows(t, got, [][]int64{{1, 5}})
}

// TestAggregateWithoutGroupByRejectsBareColumns enforces the standard rule.
func TestAggregateWithoutGroupByRejectsBareColumns(t *testing.T) {
	db := newTestDB(t)
	tbl := mkTable(t, db, "ng", []string{"n"}, "n", "a", "b")
	load(t, tbl, numbered(ints(1, 2))...)
	if _, err := db.Query("SELECT a, MIN(b) FROM ng"); err == nil {
		t.Error("bare column alongside aggregate without GROUP BY accepted")
	}
	if _, err := db.Query("SELECT MIN(b) FROM ng ORDER BY a"); err == nil {
		t.Error("bare ORDER BY column with aggregate accepted")
	}
}

// TestHavingInBetween: HAVING, IN and BETWEEN are outside the dialect — a
// derived table's WHERE, and AND over comparisons, say the same.
func TestHavingInBetween(t *testing.T) {
	db := newTestDB(t)
	tbl := mkTable(t, db, "h", []string{"n"}, "n", "grp", "val")
	load(t, tbl, numbered(ints(1, 5), ints(1, 3), ints(2, 9), ints(2, 1), ints(3, 4), ints(4, 8))...)
	wantRefused(t, db, "SELECT grp, MIN(val) FROM h GROUP BY grp HAVING MIN(val) < 4 ORDER BY grp", `"HAVING"`)
	got := queryInts(t, db, "SELECT grp, m FROM (SELECT grp, MIN(val) AS m FROM h GROUP BY grp) g WHERE m < 4 ORDER BY grp")
	eqRows(t, got, [][]int64{{1, 3}, {2, 1}})
	wantRefused(t, db, "SELECT val FROM h WHERE grp IN (2, 4) ORDER BY val", `"IN"`)
	wantRefused(t, db, "SELECT val FROM h WHERE val BETWEEN 4 AND 8 ORDER BY val", `"BETWEEN"`)
	got = queryInts(t, db, "SELECT val FROM h WHERE val >= 4 AND val <= 8 ORDER BY val")
	eqRows(t, got, [][]int64{{4}, {5}, {8}})
}

// TestCaseExpression: CASE is outside the dialect.
func TestCaseExpression(t *testing.T) {
	db := newTestDB(t)
	tbl := mkTable(t, db, "c", []string{"n"}, "n", "x")
	load(t, tbl, numbered(ints(1), ints(5), ints(12))...)
	wantRefused(t, db, "SELECT CASE WHEN x < 3 THEN 100 ELSE 300 END FROM c ORDER BY x", `"CASE"`)
	wantRefused(t, db, "SELECT MIN(CASE WHEN x < 10 THEN 1 END) FROM c", `"CASE"`)
}

func TestAccessorsAndReplace(t *testing.T) {
	db := newTestDB(t)
	tbl := mkTable(t, db, "acc", []string{"k"}, "k", "v")
	if db.Device().Name != "ram" {
		t.Errorf("Device = %q", db.Device().Name)
	}
	if db.Clock() == nil {
		t.Error("Clock nil")
	}
	names := db.Tables()
	if len(names) != 1 || names[0] != "acc" {
		t.Errorf("Tables = %v", names)
	}
	if def := tbl.Def(); def.Name != "acc" || len(def.Columns) != 2 {
		t.Errorf("Def = %+v", def)
	}
	load(t, tbl, ints(1, 10), ints(2, 20))
	// A refused load surfaces the failing row index and replaces nothing.
	if err := tbl.BulkLoad([]sqltypes.Row{ints(3, 30), ints(1, 99)}); err == nil || !strings.Contains(err.Error(), "row 1") {
		t.Errorf("out-of-order load: %v, want a rejection naming row 1", err)
	}
	// Loading a table that has rows replaces them.
	load(t, tbl, ints(1, 10), ints(2, 222))
	row, ok, err := tbl.LookupPK([]int64{2})
	if err != nil || !ok || row[1].I != 222 || tbl.RowCount() != 2 {
		t.Fatalf("after replace: %v %v %v (%d rows)", row, ok, err, tbl.RowCount())
	}
	l0, s0 := tbl.AccessStats()
	tbl.LookupPK([]int64{1})
	tbl.Scan(func(sqltypes.Row) error { return nil })
	l1, s1 := tbl.AccessStats()
	if l1 != l0+1 || s1 != s0+1 {
		t.Errorf("access stats: lookups %d->%d scans %d->%d", l0, l1, s0, s1)
	}
	if _, _, err := tbl.LookupPK([]int64{1, 2}); err == nil {
		t.Error("wrong key arity accepted")
	}
}

func TestQueryTracedSQL(t *testing.T) {
	db := newTestDB(t)
	tbl := mkTable(t, db, "qt", []string{"k"}, "k", "v")
	load(t, tbl, ints(1, 10))
	rel, trace, err := db.QueryTraced("SELECT v FROM qt WHERE k = 1")
	if err != nil || len(rel.Rows) != 1 {
		t.Fatal(rel, err)
	}
	if len(trace) == 0 {
		t.Error("empty trace")
	}
	if _, _, err := db.QueryTraced("SELECT FROM"); err == nil {
		t.Error("bad SQL accepted")
	}
}
