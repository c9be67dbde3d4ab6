package sql_test

// dialect_test.go pins the boundary of the dialect from outside the package:
// the ten statements of exec/codes.go parse in any letter case, every
// construct the engine once had and no statement uses is refused by name, and
// no input — parsed or not — makes the parser or the general executor panic.

import (
	"fmt"
	"strings"
	"testing"

	"ptldb/internal/core"
	"ptldb/internal/order"
	"ptldb/internal/sqldb"
	"ptldb/internal/sqldb/exec"
	"ptldb/internal/sqldb/sql"
	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/sqldb/storage"
	"ptldb/internal/timetable"
	"ptldb/internal/ttl"
)

// theTen is the workload with its verbs filled in for a default-version store
// holding the target set "poi" at the default bucket width.
func theTen() []string {
	return []string{
		fmt.Sprintf(exec.SQLV2VEA, "lout", "lin"),
		fmt.Sprintf(exec.SQLV2VLD, "lout", "lin"),
		fmt.Sprintf(exec.SQLV2VSD, "lout", "lin"),
		fmt.Sprintf(exec.SQLV2VEAWitness, "lout", "lin"),
		fmt.Sprintf(exec.SQLKNNNaiveEA, "knn_naive_poi", "lout"),
		fmt.Sprintf(exec.SQLKNNNaiveLD, "knn_naive_poi", "lout"),
		fmt.Sprintf(exec.SQLKNNEA, "knn_ea_poi", 3600, "lout"),
		fmt.Sprintf(exec.SQLOTMEA, "otm_ea_poi", 3600, "lout"),
		fmt.Sprintf(exec.SQLKNNLD, "knn_ld_poi", 3600, "lout"),
		fmt.Sprintf(exec.SQLOTMLD, "otm_ld_poi", 3600, "lout"),
	}
}

// outside lists one statement per construct that is not in the dialect, with
// what its error must name.
var outside = []struct{ stmt, names string }{
	{"SELECT a FROM t WHERE a = 1 OR b = 2", `"OR"`},
	{"SELECT a FROM t WHERE NOT a = 1", `"NOT"`},
	{"SELECT -a FROM t", `"-"`},
	{"SELECT a FROM t WHERE a = -1", `"-"`},
	{"SELECT xs[1] FROM t", "subscript"},
	{"SELECT CASE WHEN a > 0 THEN a END FROM t", `"CASE"`},
	{"SELECT a FROM t WHERE a IN (1, 2)", `"IN"`},
	{"SELECT a FROM t WHERE a BETWEEN 1 AND 2", `"BETWEEN"`},
	{"SELECT a FROM t WHERE a <> 1", `"<>"`},
	{"SELECT a FROM t WHERE a != 1", `"!="`},
	{"SELECT a + 1 FROM t", `"+"`},
	{"SELECT a * 2 FROM t", `"*"`},
	{"SELECT a % 2 FROM t", `"%"`},
	{"SELECT a FROM t GROUP BY a HAVING MIN(b) > 1", `"HAVING"`},
	{"SELECT 1", "SELECT without FROM"},
	{"SELECT a FROM t UNION SELECT a FROM u ORDER BY a", `"ORDER"`},
	{"(SELECT a FROM t) UNION (SELECT a FROM u) LIMIT 1", `"LIMIT"`},
	{"SELECT a FROM ((SELECT a FROM t) UNION (SELECT a FROM u) ORDER BY a) s", `"ORDER"`},
	{"SELECT ABS(a) FROM t", "function ABS"},
	{"SELECT CEIL(a) FROM t", "function CEIL"},
	{"SELECT COALESCE(a, b) FROM t", "function COALESCE"},
	{"SELECT LEAST(a, b) FROM t", "function LEAST"},
	{"SELECT GREATEST(a, b) FROM t", "function GREATEST"},
	{"SELECT CARDINALITY(xs) FROM t", "function CARDINALITY"},
	{"SELECT ARRAY_LENGTH(xs, 1) FROM t", "function ARRAY_LENGTH"},
	{"SELECT SUM(a) FROM t", "function SUM"},
	{"SELECT AVG(a) FROM t", "function AVG"},
	{"SELECT COUNT(a) FROM t", `expected "*"`},
	{"SELECT a FROM t WHERE name = 'x'", "string literal"},
	{"SELECT NULL FROM t", `"NULL"`},
	{"SELECT a FROM t WHERE a IS NULL", `"IS"`},
	{"SELECT * FROM t", `"*"`},
	{"SELECT (a - 1) / 2 FROM t", `"("`},
	{"SELECT DISTINCT a FROM t", `"DISTINCT"`},
	{"SELECT a FROM t ORDER BY a ASC", `"ASC"`},
	{"SELECT a FROM t JOIN u ON t.a = u.a", `"JOIN"`},
	{"SELECT a -- the key\nFROM t", `"-"`},
	{"SELECT a /* the key */ FROM t", `"*"`},
}

// TestParseRejectsOutsideDialect: the ten statements parse as written, in
// upper and in lower case; each construct outside the dialect is a parse
// error whose text names it.
func TestParseRejectsOutsideDialect(t *testing.T) {
	for i, stmt := range theTen() {
		for _, s := range []string{stmt, strings.ToUpper(stmt), strings.ToLower(stmt)} {
			if _, err := sql.Parse(s); err != nil {
				t.Errorf("statement %d does not parse: %v\n%s", i, err, s)
			}
		}
	}
	for _, tc := range outside {
		_, err := sql.Parse(tc.stmt)
		if err == nil || !strings.Contains(err.Error(), tc.names) {
			t.Errorf("Parse(%q) = %v; want an error naming %s", tc.stmt, err, tc.names)
		}
	}
}

// FuzzParse: no input makes Parse panic, and whatever parses runs to a result
// or an error on the general executor — the console's input comes from
// outside the program. The catalog is the paper's Figure 1 with one target
// set, opened on the reference handle.
func FuzzParse(f *testing.F) {
	db, err := sqldb.Open(f.TempDir(), sqldb.Options{Device: storage.RAM, PoolPages: 1024, ReferenceExec: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { db.Close() })
	st, err := core.Build(db, ttl.Build(timetable.PaperExample(), order.Identity(7)).Augment(), core.BuildOptions{})
	if err != nil {
		f.Fatal(err)
	}
	if err := st.AddTargetSet("poi", []timetable.StopID{2, 4, 5}, 2); err != nil {
		f.Fatal(err)
	}
	params := []sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewInt(4), sqltypes.NewInt(3), sqltypes.NewInt(40000)}
	for _, stmt := range theTen() {
		if _, err := db.Query(stmt, params...); err != nil {
			f.Fatalf("a statement of the workload fails on the general executor: %v\n%s", err, stmt)
		}
		f.Add(stmt)
	}
	for _, tc := range outside {
		f.Add(tc.stmt)
	}
	f.Add("SELECT stops.* FROM stops WHERE v = $1")
	f.Add("SELECT COUNT(*) FROM lout;")
	f.Add("SELECT a.v, b.hub FROM lout a, knn_ea_poi b WHERE a.v = b.hub ORDER BY b.hub DESC LIMIT $3")
	f.Fuzz(func(t *testing.T, stmt string) {
		if _, err := sql.Parse(stmt); err != nil {
			return
		}
		_, _ = db.Query(stmt, params...) // an error is an answer; a panic fails the run
	})
}
