package exec

import (
	"fmt"
	"strings"
	"testing"

	"ptldb/internal/sqldb/sql"
	"ptldb/internal/sqldb/sqltypes"
)

// oneColTable is a keyless one-column table, so that a join with it is the
// hash join.
func oneColTable(name string, vals ...sqltypes.Value) *memTable {
	tb := &memTable{cols: []string{name}}
	for _, v := range vals {
		tb.rows = append(tb.rows, sqltypes.Row{v})
	}
	return tb
}

func TestIntHashJoinBasic(t *testing.T) {
	cat := memCatalog{
		"a": oneColTable("x", sqltypes.NewInt(1), sqltypes.NewInt(2), sqltypes.Value{}, sqltypes.NewInt(2)),
		"b": oneColTable("y", sqltypes.NewInt(2), sqltypes.NewInt(2), sqltypes.NewInt(3), sqltypes.Value{}),
	}
	rel := run(t, cat, "SELECT a.x, b.y FROM a, b WHERE a.x = b.y")
	// Both NULL keys are skipped; each a-row with key 2 matches both b-rows
	// with key 2, in b insertion order.
	var pairs [][2]int64
	for _, r := range rel.Rows {
		pairs = append(pairs, [2]int64{r[0].I, r[1].I})
	}
	want := [][2]int64{{2, 2}, {2, 2}, {2, 2}, {2, 2}}
	if fmt.Sprint(pairs) != fmt.Sprint(want) {
		t.Fatalf("pairs = %v, want %v", pairs, want)
	}
	// The join hashes the first equality between the two sides; a second one
	// is left to the WHERE clause and still holds on every row.
	rel = run(t, cat, "SELECT a.x, b.y FROM a, b WHERE a.x = b.y AND a.x - 1 = b.y - 1 AND b.y - 2 = a.x - a.x")
	if len(rel.Rows) != 4 {
		t.Fatalf("two-equality join = %v, want the four (2, 2) pairs", rel.Rows)
	}
}

// TestIntHashJoinMixedTypeBailout: the join matches BIGINT keys. A key of
// another type on either side fails the statement with an error naming the
// type; there is no second join to bail out to.
func TestIntHashJoinMixedTypeBailout(t *testing.T) {
	ints := oneColTable("x", sqltypes.NewInt(1), sqltypes.NewInt(2))
	for side, cat := range map[string]memCatalog{
		"build": {"a": ints, "b": oneColTable("y", sqltypes.NewInt(1), sqltypes.NewText("oops"))},
		"probe": {"a": oneColTable("x", sqltypes.NewInt(1), sqltypes.NewText("oops")), "b": oneColTable("y", sqltypes.NewInt(1))},
	} {
		sel, err := sql.Parse("SELECT a.x FROM a, b WHERE a.x = b.y")
		if err != nil {
			t.Fatal(err)
		}
		rel, err := Run(sel, cat, nil)
		if err == nil || rel != nil || !strings.Contains(err.Error(), "TEXT is not numeric") {
			t.Errorf("%s side: %v, %v; want no rows and an error naming the TEXT key type", side, rel, err)
		}
	}
}

// TestHashJoinMixedKeyNoDuplicates: a key column holding a TEXT among its
// BIGINTs fails the join on the probe side after earlier rows matched; the
// statement returns the error and none of those rows.
func TestHashJoinMixedKeyNoDuplicates(t *testing.T) {
	left := &memTable{cols: []string{"k", "v"}, rows: []sqltypes.Row{
		{sqltypes.NewInt(1), sqltypes.NewInt(10)},
		{sqltypes.NewText("x"), sqltypes.NewInt(20)},
		{sqltypes.NewInt(2), sqltypes.NewInt(30)},
	}}
	right := &memTable{cols: []string{"k", "w"}, rows: []sqltypes.Row{
		{sqltypes.NewInt(1), sqltypes.NewInt(100)},
		{sqltypes.NewInt(2), sqltypes.NewInt(200)},
	}}
	cat := memCatalog{"lhs": left, "rhs": right}
	const q = "SELECT lhs.v, rhs.w FROM lhs, rhs WHERE lhs.k=rhs.k ORDER BY lhs.v"
	sel, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	if rel, err := Run(sel, cat, nil); err == nil || rel != nil {
		t.Fatalf("mixed-type key: %v, %v; want an error and no relation", rel, err)
	}
	left.rows[1][0] = sqltypes.Null
	rel := run(t, cat, q)
	want := [][2]int64{{10, 100}, {30, 200}}
	if len(rel.Rows) != len(want) {
		t.Fatalf("got %d rows (%v), want %d", len(rel.Rows), rel.Rows, len(want))
	}
	for i, w := range want {
		if rel.Rows[i][0].I != w[0] || rel.Rows[i][1].I != w[1] {
			t.Fatalf("row %d = %v, want %v", i, rel.Rows[i], w)
		}
	}
}
