package exec

import (
	"fmt"
	"strings"
	"testing"

	"ptldb/internal/obs"
	"ptldb/internal/sqldb/sql"
	"ptldb/internal/sqldb/sqltypes"
)

// memTable is an in-memory Table implementation for executor unit tests.
// runOrder is what it declares as its run order, targetCols, bound and count
// as its target ids; nothing validates the rows against either, so a test that
// sets one builds rows that keep it — or break it on purpose. Its scratch
// reads recycle buffers with maximal hostility — rows and the arena are reused
// exactly as the Table contracts allow — to surface aliasing bugs in the fused
// operators.
type memTable struct {
	cols       []string
	pk         []int
	runOrder   []int
	targetCols []int
	bound      int
	count      int // at most this many distinct target ids; 0 declares none
	// floor declares, when floorCols is set, that every element of those
	// columns is >= the floorKey column times floorWidth.
	floorKey   int
	floorWidth int64
	floorCols  []int
	rows       []sqltypes.Row
}

func (m *memTable) Columns() []string              { return m.cols }
func (m *memTable) PKCols() []int                  { return m.pk }
func (m *memTable) RunOrder() []int                { return m.runOrder }
func (m *memTable) TargetBound() ([]int, int, int) { return m.targetCols, m.bound, m.count }
func (m *memTable) Resident() bool                 { return false }
func (m *memTable) Floor() (int, int64, []int) {
	if m.floorCols == nil {
		return -1, 0, nil
	}
	return m.floorKey, m.floorWidth, m.floorCols
}

func (m *memTable) LookupPK(key []int64) (sqltypes.Row, bool, error) {
	for _, r := range m.rows {
		match := true
		for i, ci := range m.pk {
			if r[ci].T != sqltypes.Int64 || r[ci].I != key[i] {
				match = false
				break
			}
		}
		if match {
			return r, true, nil
		}
	}
	return nil, false, nil
}

func (m *memTable) Scan(fn func(sqltypes.Row) error) error {
	for _, r := range m.rows {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

func (m *memTable) LookupPKScratch(key []int64, s *RowScratch) (sqltypes.Row, bool, error) {
	row, ok, err := m.LookupPK(key)
	if err != nil || !ok {
		return nil, ok, err
	}
	return copyRow(row, s), true, nil
}

func (m *memTable) ScanScratch(s *RowScratch, fn func(sqltypes.Row) error) error {
	return m.Scan(func(row sqltypes.Row) error {
		s.Arena = s.Arena[:0] // recycle: clobbers the previous row's arrays
		return fn(copyRow(row, s))
	})
}

// copyRow materializes row into s per the scratch contracts: the Row header is
// recycled, arrays are carved out of s.Arena by appending.
func copyRow(row sqltypes.Row, s *RowScratch) sqltypes.Row {
	if cap(s.Row) >= len(row) {
		s.Row = s.Row[:len(row)]
	} else {
		s.Row = make(sqltypes.Row, len(row))
	}
	for i, v := range row {
		if v.T == sqltypes.IntArray {
			start := len(s.Arena)
			s.Arena = append(s.Arena, v.A...)
			v = sqltypes.NewIntArray(s.Arena[start:len(s.Arena):len(s.Arena)])
		}
		s.Row[i] = v
	}
	return s.Row
}

type memCatalog map[string]*memTable

func (c memCatalog) Table(name string) (Table, bool) {
	t, ok := c[strings.ToLower(name)]
	return t, ok
}

// ExecMetrics hands out counters no test reads.
func (c memCatalog) ExecMetrics() *obs.ExecMetrics { return new(obs.ExecMetrics) }

func run(t *testing.T, cat Catalog, q string, params ...sqltypes.Value) *Relation {
	t.Helper()
	sel, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	rel, err := Run(sel, cat, params)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return rel
}

func testCatalog() memCatalog {
	nums := &memTable{cols: []string{"a", "b"}, pk: []int{0}}
	for i := int64(0); i < 10; i++ {
		nums.rows = append(nums.rows, sqltypes.Row{sqltypes.NewInt(i), sqltypes.NewInt(i * i)})
	}
	return memCatalog{"nums": nums}
}

func TestSchemaResolve(t *testing.T) {
	s := Schema{{Qual: "t", Name: "a"}, {Qual: "u", Name: "b"}, {Qual: "u", Name: "a"}}
	if i, err := s.resolve("t", "a"); err != nil || i != 0 {
		t.Errorf("resolve(t.a) = %d, %v", i, err)
	}
	if i, err := s.resolve("", "b"); err != nil || i != 1 {
		t.Errorf("resolve(b) = %d, %v", i, err)
	}
	if _, err := s.resolve("", "a"); err == nil {
		t.Error("ambiguous column accepted")
	}
	if _, err := s.resolve("t", "zzz"); err == nil {
		t.Error("unknown column accepted")
	}
	// Case-insensitive on both qualifier and name.
	if i, err := s.resolve("U", "B"); err != nil || i != 1 {
		t.Errorf("resolve(U.B) = %d, %v", i, err)
	}
}

func TestRequalify(t *testing.T) {
	s := Schema{{Qual: "x", Name: "a"}, {Qual: "y", Name: "b"}}
	r := s.requalify("z")
	for i, c := range r {
		if c.Qual != "z" || c.Name != s[i].Name {
			t.Errorf("requalify[%d] = %+v", i, c)
		}
	}
	// Original untouched.
	if s[0].Qual != "x" {
		t.Error("requalify mutated input")
	}
}

func TestCompileErrors(t *testing.T) {
	cat := testCatalog()
	bad := []string{
		"SELECT zzz FROM nums",
		"SELECT a FROM nums WHERE zzz = 1",
		"SELECT a FROM nums ORDER BY zzz",
		"SELECT a FROM nums WHERE a = $1",     // missing param
		"SELECT a FROM nums LIMIT b",          // column ref in LIMIT
		"SELECT a FROM nums WHERE a = 1/0",    // runtime arithmetic error
		"SELECT UNNEST(a) - 1 FROM nums",      // non-top-level unnest
		"SELECT a FROM nums WHERE MIN(a) = 1", // aggregate outside a grouping context
	}
	for _, q := range bad {
		sel, err := sql.Parse(q)
		if err != nil {
			t.Fatalf("parse(%q): %v", q, err)
		}
		if _, err := Run(sel, cat, nil); err == nil {
			t.Errorf("Run(%q) succeeded", q)
		}
	}
}

func TestArithmeticTyping(t *testing.T) {
	cat := testCatalog()
	rel := run(t, cat, "SELECT 7 / 2, 7.0 / 2, 7 - 9, 7.5 - 2 FROM nums WHERE a = 0")
	row := rel.Rows[0]
	if row[0].T != sqltypes.Int64 || row[0].I != 3 {
		t.Errorf("7/2 = %v (integer division expected)", row[0])
	}
	if row[1].T != sqltypes.Float64 || row[1].F != 3.5 {
		t.Errorf("7.0/2 = %v", row[1])
	}
	if row[2].T != sqltypes.Int64 || row[2].I != -2 {
		t.Errorf("7-9 = %v", row[2])
	}
	if row[3].T != sqltypes.Float64 || row[3].F != 5.5 {
		t.Errorf("7.5-2 = %v", row[3])
	}
}

// TestScalarFunctions: FLOOR is the dialect's one scalar function — Codes 3
// and 4 bucket a timestamp with it. The six others the engine had are parse
// errors (TestParseRejectsOutsideDialect).
func TestScalarFunctions(t *testing.T) {
	cat := memCatalog{"arrs": {cols: []string{"xs"}, rows: []sqltypes.Row{
		{sqltypes.NewIntArray([]int64{5, 1, 9})},
	}}}
	rel := run(t, cat, "SELECT FLOOR(2.9), FLOOR(7), FLOOR(0 - 7/2.0) FROM arrs")
	for i, want := range []int64{2, 7, -4} {
		got, err := rel.Rows[0][i].AsInt()
		if err != nil || got != want {
			t.Errorf("col %d = %v, want %d", i, rel.Rows[0][i], want)
		}
	}
	sel, err := sql.Parse("SELECT FLOOR(xs) FROM arrs")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(sel, cat, nil); err == nil || !strings.Contains(err.Error(), "FLOOR of") {
		t.Errorf("FLOOR of an array: %v", err)
	}
}

// TestThreeValuedLogicTruthTable: the NULL the dialect can still make — an
// aggregate over no rows — through AND, the comparisons, "-", "/" and FLOOR.
func TestThreeValuedLogicTruthTable(t *testing.T) {
	cat := testCatalog()
	cases := []struct {
		expr string
		want string // "t", "f" or "n"
	}{
		{"1 = 1 AND n = 1", "n"},
		{"1 = 2 AND n = 1", "f"},
		{"n = 1 AND 1 = 2", "f"},
		{"n = 1 AND 1 = 1", "n"},
		{"1 = 1 AND 2 > 1", "t"},
		{"n = n", "n"},
		{"n <= 1.5", "n"},
		{"n - 1", "n"},
		{"1 / n", "n"},
		{"FLOOR(n)", "n"},
	}
	for _, c := range cases {
		rel := run(t, cat, fmt.Sprintf("SELECT %s FROM (SELECT MIN(a) AS n FROM nums WHERE a > 100) e", c.expr))
		v := rel.Rows[0][0]
		got := "n"
		if !v.IsNull() {
			if tr, _ := truth(v); tr {
				got = "t"
			} else {
				got = "f"
			}
		}
		if got != c.want {
			t.Errorf("%s = %q (%v), want %q", c.expr, got, v, c.want)
		}
	}
	// A NULL predicate keeps no row.
	if rel := run(t, cat, "SELECT n FROM (SELECT MIN(a) AS n FROM nums WHERE a > 100) e WHERE n >= 0"); len(rel.Rows) != 0 {
		t.Errorf("WHERE NULL kept %v", rel.Rows)
	}
}

func TestIndexVsScanSameResults(t *testing.T) {
	// The same query answered via the PK access path and via a full scan
	// (no PK) must agree.
	withPK := testCatalog()
	noPK := memCatalog{"nums": {cols: []string{"a", "b"}, rows: withPK["nums"].rows}}
	q := "SELECT b FROM nums WHERE a = 6"
	a := run(t, withPK, q)
	b := run(t, noPK, q)
	if len(a.Rows) != 1 || len(b.Rows) != 1 || a.Rows[0][0].I != b.Rows[0][0].I {
		t.Errorf("index path %v vs scan path %v", a.Rows, b.Rows)
	}
}

func TestCTEShadowsTable(t *testing.T) {
	cat := testCatalog()
	rel := run(t, cat, "WITH nums AS (SELECT 42 AS a FROM nums WHERE a = 0) SELECT a FROM nums")
	if len(rel.Rows) != 1 || rel.Rows[0][0].I != 42 {
		t.Errorf("CTE did not shadow base table: %v", rel.Rows)
	}
}

func TestNestedCTEScopes(t *testing.T) {
	cat := testCatalog()
	rel := run(t, cat, `
WITH x AS (SELECT 1 AS v FROM nums WHERE a = 0),
     y AS (SELECT v - 1 AS v FROM x)
SELECT x.v, y.v FROM x, y WHERE x.v - 1 = y.v`)
	if len(rel.Rows) != 1 || rel.Rows[0][0].I != 1 || rel.Rows[0][1].I != 0 {
		t.Errorf("nested CTEs = %v", rel.Rows)
	}
}

// TestSumAvgAggregates: SUM and AVG left the dialect — no statement of the
// workload has one. What aggregates is MIN, MAX and COUNT(*), over BIGINTs.
func TestSumAvgAggregates(t *testing.T) {
	cat := testCatalog()
	for _, q := range []string{"SELECT SUM(a) FROM nums", "SELECT AVG(a) FROM nums"} {
		if _, err := sql.Parse(q); err == nil || !strings.Contains(err.Error(), q[7:10]) {
			t.Errorf("Parse(%q) = %v, want an error naming the function", q, err)
		}
	}
	rel := run(t, cat, "SELECT MIN(a), MAX(b), COUNT(*) FROM nums")
	if r := rel.Rows[0]; r[0].I != 0 || r[1].I != 81 || r[2].I != 10 {
		t.Errorf("MIN, MAX, COUNT(*) = %v", r)
	}
	// MIN and MAX over empty input are NULL; COUNT(*) is 0.
	rel = run(t, cat, "SELECT MIN(a), MAX(a), COUNT(*) FROM nums WHERE a > 100")
	if r := rel.Rows[0]; !r[0].IsNull() || !r[1].IsNull() || r[2].I != 0 {
		t.Errorf("empty MIN, MAX, COUNT(*) = %v", r)
	}
	sel, err := sql.Parse("SELECT MIN(a / 2.0) FROM nums")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(sel, cat, nil); err == nil || !strings.Contains(err.Error(), "MIN of DOUBLE") {
		t.Errorf("MIN over doubles: %v, want an error naming it", err)
	}
}

func TestOrderByAliasAfterUnnest(t *testing.T) {
	cat := memCatalog{"arrs": {cols: []string{"xs"}, rows: []sqltypes.Row{
		{sqltypes.NewIntArray([]int64{5, 1, 9})},
	}}}
	// After UNNEST, ORDER BY must reference output columns (by alias).
	rel := run(t, cat, "SELECT UNNEST(xs) AS x FROM arrs ORDER BY x DESC")
	var got []int64
	for _, r := range rel.Rows {
		got = append(got, r[0].I)
	}
	if len(got) != 3 || got[0] != 9 || got[1] != 5 || got[2] != 1 {
		t.Errorf("ordered unnest = %v", got)
	}
	// Referencing an input-only column after UNNEST is rejected.
	sel, err := sql.Parse("SELECT UNNEST(xs) AS x FROM arrs ORDER BY xs")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(sel, cat, nil); err == nil {
		t.Error("ORDER BY on array input column after UNNEST accepted")
	}
}

func TestLimitZero(t *testing.T) {
	cat := testCatalog()
	rel := run(t, cat, "SELECT a FROM nums LIMIT 0")
	if len(rel.Rows) != 0 {
		t.Errorf("LIMIT 0 returned %d rows", len(rel.Rows))
	}
}

func TestColumnsHelper(t *testing.T) {
	rel := &Relation{Schema: Schema{{Qual: "t", Name: "a"}, {Name: "b"}}}
	cols := rel.Columns()
	if len(cols) != 2 || cols[0] != "a" || cols[1] != "b" {
		t.Errorf("Columns = %v", cols)
	}
}

func TestUnionPathsDirect(t *testing.T) {
	cat := testCatalog()
	// UNION dedup, UNION ALL, and ORDER BY / LIMIT over the combined set the
	// way Codes 3 and 4 spell it: on a derived table.
	rel := run(t, cat, `
SELECT a FROM ((SELECT a FROM nums WHERE a < 2) UNION (SELECT a FROM nums WHERE a < 3)) u
ORDER BY a DESC LIMIT 2`)
	if len(rel.Rows) != 2 || rel.Rows[0][0].I != 2 || rel.Rows[1][0].I != 1 {
		t.Fatalf("union rows = %v", rel.Rows)
	}
	rel = run(t, cat, "SELECT a FROM nums WHERE a = 1 UNION ALL SELECT a FROM nums WHERE a = 1")
	if len(rel.Rows) != 2 {
		t.Fatalf("union all rows = %v", rel.Rows)
	}
	// Arity mismatch is an error.
	sel, _ := sql.Parse("SELECT a, b FROM nums UNION SELECT a FROM nums")
	if _, err := Run(sel, cat, nil); err == nil {
		t.Error("union arity mismatch accepted")
	}
}

func TestRunTraced(t *testing.T) {
	cat := testCatalog()
	sel, err := sql.Parse("SELECT b FROM nums WHERE a = 3")
	if err != nil {
		t.Fatal(err)
	}
	rel, trace, err := RunTraced(sel, cat, nil)
	if err != nil || len(rel.Rows) != 1 {
		t.Fatal(rel, err)
	}
	if len(trace) == 0 || !strings.Contains(trace[0], "point lookup nums") {
		t.Errorf("trace = %v", trace)
	}
}

func TestIndexNestedLoopAndNullKeys(t *testing.T) {
	dim := &memTable{cols: []string{"k", "w"}, pk: []int{0}, rows: []sqltypes.Row{
		{sqltypes.NewInt(10), sqltypes.NewInt(100)},
		{sqltypes.NewInt(20), sqltypes.NewInt(200)},
	}}
	facts := &memTable{cols: []string{"k"}, rows: []sqltypes.Row{
		{sqltypes.NewInt(10)}, {sqltypes.Null}, {sqltypes.NewInt(30)},
	}}
	cat := memCatalog{"dim": dim, "facts": facts}
	// facts has no PK: it scans; dim's PK is bound by facts.k -> index join.
	// NULL keys never match.
	rel := run(t, cat, "SELECT dim.w FROM facts, dim WHERE dim.k = facts.k")
	if len(rel.Rows) != 1 || rel.Rows[0][0].I != 100 {
		t.Fatalf("index join rows = %v", rel.Rows)
	}
	// Hash join with NULL keys (no usable index: join both directions on
	// non-PK columns).
	a := &memTable{cols: []string{"x"}, rows: []sqltypes.Row{
		{sqltypes.NewInt(1)}, {sqltypes.Null},
	}}
	b := &memTable{cols: []string{"x", "y"}, rows: []sqltypes.Row{
		{sqltypes.NewInt(1), sqltypes.NewInt(11)},
		{sqltypes.Null, sqltypes.NewInt(99)},
	}}
	cat2 := memCatalog{"a": a, "b": b}
	rel = run(t, cat2, "SELECT b.y FROM a, b WHERE a.x = b.x")
	if len(rel.Rows) != 1 || rel.Rows[0][0].I != 11 {
		t.Fatalf("hash join with NULLs = %v", rel.Rows)
	}
	// No equality conjunct between the two: a cross product, which no
	// statement of the workload is.
	sel, err := sql.Parse("SELECT b.y FROM a, b WHERE b.y > 50")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(sel, cat2, nil); err == nil || !strings.Contains(err.Error(), "cross product") {
		t.Fatalf("cross product: %v, want an error naming it", err)
	}
}

func TestIntCmpAllOps(t *testing.T) {
	cat := testCatalog()
	rel := run(t, cat, "SELECT 1 = 1, 1 < 2, 2 <= 2, 3 > 2, 2 >= 3, 1.5 < 2, 2 >= 2.5, 2 = 2.0 FROM nums WHERE a = 0")
	want := []int64{1, 1, 1, 1, 0, 1, 0, 1}
	for i, w := range want {
		if rel.Rows[0][i].I != w {
			t.Errorf("op %d = %v, want %d", i, rel.Rows[0][i], w)
		}
	}
}

func TestStarExpansionVariants(t *testing.T) {
	cat := testCatalog()
	rel := run(t, cat, "SELECT nums.* FROM nums WHERE a = 1")
	if len(rel.Rows) != 1 || len(rel.Rows[0]) != 2 {
		t.Fatalf("star = %v", rel.Rows)
	}
	rel = run(t, cat, "SELECT n.*, n.a AS again FROM nums AS n WHERE n.a = 1")
	if len(rel.Rows[0]) != 3 {
		t.Fatalf("aliased star = %v", rel.Rows)
	}
	sel, _ := sql.Parse("SELECT zz.* FROM nums AS n")
	if _, err := Run(sel, cat, nil); err == nil {
		t.Error("star with unknown qualifier accepted")
	}
}

// TestNegateAndFloatPaths: the dialect has no unary minus — 0 - x negates —
// and "-" and "/" compute in doubles as soon as one side is one.
func TestNegateAndFloatPaths(t *testing.T) {
	cat := memCatalog{"arrs": {cols: []string{"xs"}, rows: []sqltypes.Row{
		{sqltypes.NewIntArray([]int64{5, 1, 9})},
	}}}
	rel := run(t, cat, "SELECT 0 - 2.5, 0 - 1 - 1, 5 / 2.0, 1 - 0.5 FROM arrs")
	if r := rel.Rows[0]; r[0].F != -2.5 || r[1].I != -2 || r[2].F != 2.5 || r[3].F != 0.5 {
		t.Fatalf("row = %v", r)
	}
	for _, q := range []string{"SELECT xs - 1 FROM arrs", "SELECT 1.5 / xs FROM arrs", "SELECT 1.5 / 0 FROM arrs"} {
		sel, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(sel, cat, nil); err == nil {
			t.Errorf("Run(%q) succeeded", q)
		}
	}
}
