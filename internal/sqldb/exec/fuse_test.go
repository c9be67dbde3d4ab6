package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"ptldb/internal/sqldb/sql"
	"ptldb/internal/sqldb/sqltypes"
)

// The templates below are the paper's Codes 1–4 exactly as core/queries.go
// issues them (core cannot be imported here without a cycle). Table names
// and the bucket width are interpolated like core does.
const (
	tmplV2VEA = `
WITH outp AS
  (SELECT UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta
   FROM %[1]s WHERE v=$1),
inp AS
  (SELECT UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta
   FROM %[2]s WHERE v=$2)
SELECT MIN(inp.ta)
FROM outp, inp
WHERE outp.hub=inp.hub AND outp.ta<=inp.td
  AND outp.td>=$3`

	tmplV2VLD = `
WITH outp AS
  (SELECT UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta
   FROM %[1]s WHERE v=$1),
inp AS
  (SELECT UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta
   FROM %[2]s WHERE v=$2)
SELECT MAX(outp.td)
FROM outp, inp
WHERE outp.hub=inp.hub AND outp.ta<=inp.td
  AND inp.ta<=$3`

	tmplV2VSD = `
WITH outp AS
  (SELECT UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta
   FROM %[1]s WHERE v=$1),
inp AS
  (SELECT UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta
   FROM %[2]s WHERE v=$2)
SELECT MIN(inp.ta-outp.td)
FROM outp, inp
WHERE outp.hub=inp.hub AND outp.ta<=inp.td
  AND outp.td>=$3
  AND inp.ta<=$4`

	tmplKNNNaiveEA = `
WITH n1 AS
  (SELECT v, hub, td, ta
   FROM
     (SELECT v AS v, UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta
      FROM %[2]s
      WHERE v=$1) n1a
   WHERE td >=$2)
SELECT v2, MIN(n2.ta)
FROM n1,
  (SELECT hub, td, UNNEST(vs[1:$3]) AS v2, UNNEST(tas[1:$3]) AS ta
   FROM %[1]s) n2
WHERE n1.hub=n2.hub
  AND n2.td>=n1.ta
GROUP BY v2
ORDER BY MIN(n2.ta), v2
LIMIT $3`

	tmplKNNNaiveLD = `
WITH n1 AS
  (SELECT v, hub, td, ta
   FROM
     (SELECT v AS v, UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta
      FROM %[2]s
      WHERE v=$1) n1a)
SELECT v2, MAX(n1.td)
FROM n1,
  (SELECT hub, td, UNNEST(vs[1:$3]) AS v2, UNNEST(tas[1:$3]) AS ta
   FROM %[1]s) n2
WHERE n1.hub=n2.hub
  AND n2.td>=n1.ta
  AND n2.ta<=$2
GROUP BY v2
ORDER BY MAX(n1.td) DESC, v2
LIMIT $3`

	tmplKNNEA = `
WITH n1 AS
  (SELECT v, hub, td, ta
   FROM
     (SELECT v, UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta
      FROM %[3]s
      WHERE v=$1) n1a
   WHERE td >=$2),
    n1b AS
  (SELECT n1bb.*, n1.ta AS n1_ta, n1.td AS n1_td
   FROM %[1]s n1bb, n1
   WHERE n1bb.hub=n1.hub
     AND n1bb.dephour=FLOOR(n1.ta/%[2]d.0))
SELECT v2, MIN(ta)
FROM (
      (SELECT v2, MIN(n3.ta) AS ta
       FROM
          (SELECT UNNEST(tas[1:$3]) AS ta, UNNEST(vs[1:$3]) AS v2
           FROM n1b) n3
       GROUP BY v2
       ORDER BY MIN(n3.ta), v2
       LIMIT $3)
   UNION
      (SELECT n2.v2, MIN(n2.ta) AS ta
       FROM
          (SELECT n1_ta, UNNEST(tds_exp) AS td, UNNEST(vs_exp) AS v2, UNNEST(tas_exp) AS ta
           FROM n1b) n2
       WHERE n1_ta <= n2.td
       GROUP BY n2.v2
       ORDER BY MIN(n2.ta), v2
       LIMIT $3)) S53
GROUP BY v2
ORDER BY MIN(ta), v2
LIMIT $3`

	tmplOTMEA = `
WITH n1 AS
  (SELECT v, hub, td, ta
   FROM
     (SELECT v, UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta
      FROM %[3]s
      WHERE v=$1) n1a
   WHERE td >=$2),
    n1b AS
  (SELECT n1bb.*, n1.ta AS n1_ta, n1.td AS n1_td
   FROM %[1]s n1bb, n1
   WHERE n1bb.hub=n1.hub
     AND n1bb.dephour=FLOOR(n1.ta/%[2]d.0))
SELECT v2, MIN(ta)
FROM (
      (SELECT v2, MIN(n3.ta) AS ta
       FROM
          (SELECT UNNEST(tas) AS ta, UNNEST(vs) AS v2
           FROM n1b) n3
       GROUP BY v2
       ORDER BY MIN(n3.ta), v2)
   UNION
      (SELECT n2.v2, MIN(n2.ta) AS ta
       FROM
          (SELECT n1_ta, UNNEST(tds_exp) AS td, UNNEST(vs_exp) AS v2, UNNEST(tas_exp) AS ta
           FROM n1b) n2
       WHERE n1_ta <= n2.td
       GROUP BY n2.v2
       ORDER BY MIN(n2.ta), v2)) S53
GROUP BY v2
ORDER BY MIN(ta), v2`

	tmplKNNLD = `
WITH n1 AS
  (SELECT v, hub, td, ta
   FROM
     (SELECT v, UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta
      FROM %[3]s
      WHERE v=$1) n1a),
    n1b AS
  (SELECT n1bb.*, n1.ta AS n1_ta, n1.td AS n1_td
   FROM %[1]s n1bb, n1
   WHERE n1bb.hub=n1.hub
     AND n1bb.arrhour=FLOOR($2/%[2]d.0))
SELECT v2, MAX(td)
FROM (
      (SELECT v2, MAX(n3.n1_td) AS td
       FROM
          (SELECT n1_td, n1_ta, UNNEST(tds[1:$3]) AS td, UNNEST(vs[1:$3]) AS v2
           FROM n1b) n3
       WHERE n3.td>=n1_ta
       GROUP BY v2
       ORDER BY MAX(n3.n1_td) DESC, v2
       LIMIT $3)
   UNION
      (SELECT n2.v2, MAX(n2.n1_td) AS td
       FROM
          (SELECT n1_td, n1_ta, UNNEST(tds_exp) AS td, UNNEST(vs_exp) AS v2, UNNEST(tas_exp) AS ta
           FROM n1b) n2
       WHERE n2.td>=n1_ta
         AND n2.ta<=$2
       GROUP BY n2.v2
       ORDER BY MAX(n2.n1_td) DESC, v2
       LIMIT $3)) S53
GROUP BY v2
ORDER BY MAX(td) DESC, v2
LIMIT $3`

	tmplOTMLD = `
WITH n1 AS
  (SELECT v, hub, td, ta
   FROM
     (SELECT v, UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta
      FROM %[3]s
      WHERE v=$1) n1a),
    n1b AS
  (SELECT n1bb.*, n1.ta AS n1_ta, n1.td AS n1_td
   FROM %[1]s n1bb, n1
   WHERE n1bb.hub=n1.hub
     AND n1bb.arrhour=FLOOR($2/%[2]d.0))
SELECT v2, MAX(td)
FROM (
      (SELECT v2, MAX(n3.n1_td) AS td
       FROM
          (SELECT n1_td, n1_ta, UNNEST(tds) AS td, UNNEST(vs) AS v2
           FROM n1b) n3
       WHERE n3.td>=n1_ta
       GROUP BY v2
       ORDER BY MAX(n3.n1_td) DESC, v2)
   UNION
      (SELECT n2.v2, MAX(n2.n1_td) AS td
       FROM
          (SELECT n1_td, n1_ta, UNNEST(tds_exp) AS td, UNNEST(vs_exp) AS v2, UNNEST(tas_exp) AS ta
           FROM n1b) n2
       WHERE n2.td>=n1_ta
         AND n2.ta<=$2
       GROUP BY n2.v2
       ORDER BY MAX(n2.n1_td) DESC, v2)) S53
GROUP BY v2
ORDER BY MAX(td) DESC, v2`
)

func mustParse(t *testing.T, q string) *sql.Select {
	t.Helper()
	sel, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, q)
	}
	return sel
}

func TestFuseRecognizesCodes(t *testing.T) {
	cases := []struct {
		kind string
		q    string
	}{
		{"v2v-ea", fmt.Sprintf(tmplV2VEA, "lout", "lin")},
		{"v2v-ld", fmt.Sprintf(tmplV2VLD, "lout", "lin")},
		{"v2v-sd", fmt.Sprintf(tmplV2VSD, "lout", "lin")},
		{"knn-naive-ea", fmt.Sprintf(tmplKNNNaiveEA, "ea_knn_naive_s", "lout")},
		{"knn-naive-ld", fmt.Sprintf(tmplKNNNaiveLD, "ld_knn_naive_s", "lout")},
		{"cond-knn-ea", fmt.Sprintf(tmplKNNEA, "knn_ea_s", 3600, "lout")},
		{"cond-otm-ea", fmt.Sprintf(tmplOTMEA, "otm_ea_s", 3600, "lout")},
		{"cond-knn-ld", fmt.Sprintf(tmplKNNLD, "knn_ld_s", 3600, "lout")},
		{"cond-otm-ld", fmt.Sprintf(tmplOTMLD, "otm_ld_s", 3600, "lout")},
	}
	for _, tc := range cases {
		fp := Fuse(mustParse(t, tc.q))
		if fp == nil {
			t.Errorf("%s: query did not fuse", tc.kind)
			continue
		}
		if fp.Kind() != tc.kind {
			t.Errorf("Kind() = %q, want %q", fp.Kind(), tc.kind)
		}
	}
}

// TestFuseRejectsNearMisses feeds queries that are one mutation away from
// the recognized shapes; all of them must fall back to the general executor.
func TestFuseRejectsNearMisses(t *testing.T) {
	v2vEA := fmt.Sprintf(tmplV2VEA, "lout", "lin")
	cases := []struct {
		name string
		q    string
	}{
		{"strict reach comparison",
			strings.Replace(v2vEA, "outp.ta<=inp.td", "outp.ta<inp.td", 1)},
		{"wrong aggregate",
			strings.Replace(v2vEA, "MIN(inp.ta)", "MAX(inp.ta)", 1)},
		{"aggregate inside expression",
			strings.Replace(v2vEA, "MIN(inp.ta)", "MIN(inp.ta)+0", 1)},
		{"extra conjunct",
			v2vEA + " AND outp.hub>=0"},
		{"literal instead of parameter bound",
			strings.Replace(v2vEA, "outp.td>=$3", "outp.td>=100", 1)},
		{"cte shadows base table",
			// The second label scan reads FROM outp, which the general
			// executor resolves to the first CTE, not a base table.
			fmt.Sprintf(tmplV2VEA, "lout", "outp")},
		{"knn limit differs from slice bound",
			strings.Replace(fmt.Sprintf(tmplKNNNaiveEA, "naive", "lout"), "LIMIT $3", "LIMIT $2", 1)},
		{"knn missing order by",
			strings.Replace(fmt.Sprintf(tmplKNNNaiveEA, "naive", "lout"), "ORDER BY MIN(n2.ta), v2\n", "", 1)},
		{"condensed union all",
			strings.Replace(fmt.Sprintf(tmplKNNEA, "aux_ea", 50, "lout"), "UNION", "UNION ALL", 1)},
		{"plain select", "SELECT a FROM nums"},
	}
	for _, tc := range cases {
		if fp := Fuse(mustParse(t, tc.q)); fp != nil {
			t.Errorf("%s: unexpectedly fused as %q", tc.name, fp.Kind())
		}
	}
}

// --- differential harness -------------------------------------------------

// scratchMemTable implements ScratchTable over a memTable with maximally
// hostile buffer reuse — rows and the arena are recycled exactly as the
// contracts allow — to surface aliasing bugs in the fused operators.
type scratchMemTable struct{ *memTable }

// copyRow materializes row into s per the ScratchTable contracts: the Row
// header is recycled, arrays are carved out of s.Arena by appending.
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

func (m scratchMemTable) LookupPKScratch(key []int64, s *RowScratch) (sqltypes.Row, bool, error) {
	row, ok, err := m.LookupPK(key)
	if err != nil || !ok {
		return nil, ok, err
	}
	return copyRow(row, s), true, nil
}

func (m scratchMemTable) ScanScratch(s *RowScratch, fn func(sqltypes.Row) error) error {
	return m.Scan(func(row sqltypes.Row) error {
		s.Arena = s.Arena[:0] // recycle: clobbers the previous row's arrays
		return fn(copyRow(row, s))
	})
}

// scratchCatalog serves every table through the ScratchTable fast path.
type scratchCatalog struct{ inner memCatalog }

func (c scratchCatalog) Table(name string) (Table, bool) {
	t, ok := c.inner.Table(name)
	if !ok {
		return nil, false
	}
	return scratchMemTable{t.(*memTable)}, true
}

// diffRun runs q through the fused plan (which must exist) — once over the
// plain catalog and once through the scratch fast path — and requires both
// to match the general executor's schema and rows exactly.
func diffRun(t *testing.T, cat memCatalog, q string, params []sqltypes.Value) {
	t.Helper()
	diffRunOver(t, cat, []Catalog{cat, scratchCatalog{cat}}, q, params)
}

// diffRunOver is diffRun with the fused plan run over each of views — other
// ways of serving cat's tables — instead of the default two.
func diffRunOver(t *testing.T, cat memCatalog, views []Catalog, q string, params []sqltypes.Value) {
	t.Helper()
	sel := mustParse(t, q)
	fp := Fuse(sel)
	if fp == nil {
		t.Fatalf("query did not fuse:\n%s", q)
	}
	want, err := Run(sel, cat, params)
	if err != nil {
		t.Fatalf("general run (params %v): %v", params, err)
	}
	for _, c := range views {
		got, err := fp.Run(c, params)
		if err != nil {
			t.Fatalf("fused run (params %v): %v", params, err)
		}
		compareRelations(t, got, want, params)
	}
}

func compareRelations(t *testing.T, got, want *Relation, params []sqltypes.Value) {
	t.Helper()
	if len(got.Schema) != len(want.Schema) {
		t.Fatalf("schema width %d, want %d", len(got.Schema), len(want.Schema))
	}
	for i := range got.Schema {
		if !strings.EqualFold(got.Schema[i].Name, want.Schema[i].Name) {
			t.Fatalf("schema[%d].Name = %q, want %q", i, got.Schema[i].Name, want.Schema[i].Name)
		}
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("params %v: %d rows, want %d\n got: %v\nwant: %v",
			params, len(got.Rows), len(want.Rows), got.Rows, want.Rows)
	}
	for i := range got.Rows {
		if len(got.Rows[i]) != len(want.Rows[i]) {
			t.Fatalf("row %d width %d, want %d", i, len(got.Rows[i]), len(want.Rows[i]))
		}
		for j := range got.Rows[i] {
			g, w := got.Rows[i][j], want.Rows[i][j]
			switch {
			case g.IsNull() && w.IsNull():
			case g.T == sqltypes.Int64 && w.T == sqltypes.Int64 && g.I == w.I:
			default:
				t.Fatalf("params %v row %d col %d: got %v, want %v\n got: %v\nwant: %v",
					params, i, j, g, w, got.Rows, want.Rows)
			}
		}
	}
}

// randLabelTable builds a label table (v, hubs, tds, tas) for stops
// 1..nStops. Hubs are drawn from a small range so the two sides of the join
// collide; sorted=false leaves the arrays in random (hub, td) order. Sorted
// or not, arrivals are random within a hub's run: see runOrdered.
func randLabelTable(rng *rand.Rand, nStops, maxEntries int, sorted bool) *memTable {
	tbl := &memTable{cols: []string{"v", "hubs", "tds", "tas"}, pk: []int{0}}
	for v := int64(1); v <= int64(nStops); v++ {
		n := rng.Intn(maxEntries + 1)
		hubs := make([]int64, n)
		tds := make([]int64, n)
		tas := make([]int64, n)
		for i := 0; i < n; i++ {
			hubs[i] = int64(rng.Intn(4))
			tds[i] = int64(rng.Intn(200))
			tas[i] = tds[i] + 1 + int64(rng.Intn(80))
		}
		if sorted {
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			sort.Slice(idx, func(a, b int) bool {
				ia, ib := idx[a], idx[b]
				if hubs[ia] != hubs[ib] {
					return hubs[ia] < hubs[ib]
				}
				return tds[ia] < tds[ib]
			})
			sh := make([]int64, n)
			sd := make([]int64, n)
			sa := make([]int64, n)
			for i, p := range idx {
				sh[i], sd[i], sa[i] = hubs[p], tds[p], tas[p]
			}
			hubs, tds, tas = sh, sd, sa
		}
		tbl.rows = append(tbl.rows, sqltypes.Row{
			sqltypes.NewInt(v),
			sqltypes.NewIntArray(hubs),
			sqltypes.NewIntArray(tds),
			sqltypes.NewIntArray(tas),
		})
	}
	return tbl
}

func TestFusedV2VDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	queries := []struct {
		q       string
		nParams int
	}{
		{fmt.Sprintf(tmplV2VEA, "lout", "lin"), 3},
		{fmt.Sprintf(tmplV2VLD, "lout", "lin"), 3},
		{fmt.Sprintf(tmplV2VSD, "lout", "lin"), 4},
	}
	for trial := 0; trial < 30; trial++ {
		// Even trials hold run-ordered labels and run on both joins: through
		// tables that declare the order and through tables that do not. Odd
		// trials hold unordered labels, which only an undeclared table may,
		// so the hash join stays covered on data it alone can answer.
		ordered := trial%2 == 0
		cat := memCatalog{
			"lout": randLabelTable(rng, 5, 8, ordered),
			"lin":  randLabelTable(rng, 5, 8, ordered),
		}
		views := []Catalog{cat, scratchCatalog{cat}}
		if ordered {
			runOrdered(cat["lout"])
			runOrdered(cat["lin"])
			views = append(views, declaredCatalog{cat})
		}
		for _, qq := range queries {
			// The plan names the join each view takes.
			fp := Fuse(mustParse(t, qq.q))
			if plan := fp.Explain(cat); !strings.Contains(plan, "HashJoin") {
				t.Fatalf("undeclared tables: want HashJoin in\n%s", plan)
			}
			if plan := fp.Explain(declaredCatalog{cat}); !strings.Contains(plan, "RunJoin") {
				t.Fatalf("declaring tables: want RunJoin in\n%s", plan)
			}
			for rep := 0; rep < 4; rep++ {
				tv := int64(rng.Intn(220))
				params := []sqltypes.Value{
					sqltypes.NewInt(int64(rng.Intn(7))), // includes absent stops
					sqltypes.NewInt(int64(rng.Intn(7))),
					sqltypes.NewInt(tv),
				}
				if qq.nParams == 4 {
					params = append(params, sqltypes.NewInt(tv+int64(rng.Intn(150))))
				}
				diffRunOver(t, cat, views, qq.q, params)
			}
		}
	}
}

// randNaiveTable builds a (hub, td, vs, tas) condensed-naive table with one
// row per distinct (hub, td).
func randNaiveTable(rng *rand.Rand) *memTable {
	tbl := &memTable{cols: []string{"hub", "td", "vs", "tas"}, pk: []int{0, 1}}
	for hub := int64(0); hub < 4; hub++ {
		seen := map[int64]bool{}
		for i := 0; i < 3; i++ {
			td := int64(rng.Intn(250))
			if seen[td] {
				continue
			}
			seen[td] = true
			n := rng.Intn(5)
			vs := make([]int64, n)
			tas := make([]int64, n)
			for j := 0; j < n; j++ {
				vs[j] = int64(100 + rng.Intn(6))
				tas[j] = td + int64(rng.Intn(120))
			}
			tbl.rows = append(tbl.rows, sqltypes.Row{
				sqltypes.NewInt(hub), sqltypes.NewInt(td),
				sqltypes.NewIntArray(vs), sqltypes.NewIntArray(tas),
			})
		}
	}
	return tbl
}

func TestFusedKNNNaiveDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	qEA := fmt.Sprintf(tmplKNNNaiveEA, "naive", "lout")
	qLD := fmt.Sprintf(tmplKNNNaiveLD, "naive", "lout")
	for trial := 0; trial < 30; trial++ {
		cat := memCatalog{
			"lout":  randLabelTable(rng, 5, 8, trial%2 == 0),
			"naive": randNaiveTable(rng),
		}
		for _, q := range []string{qEA, qLD} {
			for rep := 0; rep < 4; rep++ {
				params := []sqltypes.Value{
					sqltypes.NewInt(int64(rng.Intn(7))),
					sqltypes.NewInt(int64(rng.Intn(300))),
					sqltypes.NewInt(int64(rng.Intn(5))), // k, including 0
				}
				diffRun(t, cat, q, params)
			}
		}
	}
}

// randAuxTable builds a condensed label table keyed (hub, bucket) with the
// top-k arrays (vs + top) and the expansion triple (tds_exp, vs_exp,
// tas_exp). bucketCol is "dephour" with top="tas" for EA, "arrhour" with
// top="tds" for LD.
func randAuxTable(rng *rand.Rand, bucketCol, top string) *memTable {
	tbl := &memTable{
		cols: []string{"hub", bucketCol, "vs", top, "tds_exp", "vs_exp", "tas_exp"},
		pk:   []int{0, 1},
	}
	for hub := int64(0); hub < 4; hub++ {
		for bucket := int64(0); bucket < 8; bucket++ {
			if rng.Intn(4) == 0 {
				continue // leave some (hub, bucket) cells missing
			}
			n := rng.Intn(4)
			vs := make([]int64, n)
			tops := make([]int64, n)
			for j := 0; j < n; j++ {
				vs[j] = int64(100 + rng.Intn(6))
				tops[j] = int64(rng.Intn(400))
			}
			m := rng.Intn(4)
			tdsExp := make([]int64, m)
			vsExp := make([]int64, m)
			tasExp := make([]int64, m)
			for j := 0; j < m; j++ {
				tdsExp[j] = int64(rng.Intn(400))
				vsExp[j] = int64(100 + rng.Intn(6))
				tasExp[j] = tdsExp[j] + int64(rng.Intn(120))
			}
			tbl.rows = append(tbl.rows, sqltypes.Row{
				sqltypes.NewInt(hub), sqltypes.NewInt(bucket),
				sqltypes.NewIntArray(vs), sqltypes.NewIntArray(tops),
				sqltypes.NewIntArray(tdsExp), sqltypes.NewIntArray(vsExp),
				sqltypes.NewIntArray(tasExp),
			})
		}
	}
	return tbl
}

func TestFusedCondensedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const width = 50
	queries := []struct {
		q       string
		nParams int
	}{
		{fmt.Sprintf(tmplKNNEA, "aux_ea", width, "lout"), 3},
		{fmt.Sprintf(tmplKNNLD, "aux_ld", width, "lout"), 3},
		{fmt.Sprintf(tmplOTMEA, "aux_ea", width, "lout"), 2},
		{fmt.Sprintf(tmplOTMLD, "aux_ld", width, "lout"), 2},
	}
	for trial := 0; trial < 25; trial++ {
		cat := memCatalog{
			"lout":   randLabelTable(rng, 5, 8, trial%2 == 0),
			"aux_ea": randAuxTable(rng, "dephour", "tas"),
			"aux_ld": randAuxTable(rng, "arrhour", "tds"),
		}
		for _, qq := range queries {
			for rep := 0; rep < 4; rep++ {
				params := []sqltypes.Value{
					sqltypes.NewInt(int64(rng.Intn(7))),
					sqltypes.NewInt(int64(rng.Intn(350))),
				}
				if qq.nParams == 3 {
					params = append(params, sqltypes.NewInt(int64(rng.Intn(5))))
				}
				diffRun(t, cat, qq.q, params)
			}
		}
	}
}

// TestFusedRuntimeBailouts checks that every runtime precondition failure
// surfaces as ErrNotFused so Stmt.Query can fall back, and that the general
// executor handles the same input.
func TestFusedRuntimeBailouts(t *testing.T) {
	q := fmt.Sprintf(tmplV2VEA, "lout", "lin")
	sel := mustParse(t, q)
	fp := Fuse(sel)
	if fp == nil {
		t.Fatal("v2v-ea did not fuse")
	}

	rng := rand.New(rand.NewSource(3))
	good := memCatalog{
		"lout": randLabelTable(rng, 3, 5, true),
		"lin":  randLabelTable(rng, 3, 5, true),
	}
	one := sqltypes.NewInt(1)

	cases := []struct {
		name   string
		cat    Catalog
		params []sqltypes.Value
	}{
		{"null parameter", good, []sqltypes.Value{{}, one, one}},
		{"float parameter", good, []sqltypes.Value{one, sqltypes.NewFloat(1.5), one}},
		{"missing parameter", good, []sqltypes.Value{one, one}},
		{"table without pk", memCatalog{
			"lout": &memTable{cols: []string{"v", "hubs", "tds", "tas"}},
			"lin":  good["lin"],
		}, []sqltypes.Value{one, one, one}},
		{"unequal array lengths", memCatalog{
			"lout": &memTable{cols: []string{"v", "hubs", "tds", "tas"}, pk: []int{0},
				rows: []sqltypes.Row{{one,
					sqltypes.NewIntArray([]int64{1, 2}),
					sqltypes.NewIntArray([]int64{5}),
					sqltypes.NewIntArray([]int64{6, 7})}}},
			"lin": good["lin"],
		}, []sqltypes.Value{one, one, one}},
	}
	for _, tc := range cases {
		if _, err := fp.Run(tc.cat, tc.params); !errors.Is(err, ErrNotFused) {
			t.Errorf("%s: err = %v, want ErrNotFused", tc.name, err)
		}
	}

	// The general executor must still be able to answer the bailout cases
	// that are legal SQL (everything except the missing parameter).
	for _, tc := range cases[:1] {
		if _, err := Run(sel, tc.cat, tc.params); err != nil {
			t.Errorf("%s: general executor failed too: %v", tc.name, err)
		}
	}
	if _, err := Run(sel, cases[4].cat, cases[4].params); err != nil {
		t.Errorf("unequal array lengths: general executor failed too: %v", err)
	}
}

// TestOrderLimitTopK pits the bounded-heap ORDER BY ... LIMIT path in the
// general executor against a full sort followed by truncation.
func TestOrderLimitTopK(t *testing.T) {
	dups := &memTable{cols: []string{"a", "b"}, pk: []int{0}}
	rng := rand.New(rand.NewSource(5))
	for i := int64(0); i < 40; i++ {
		dups.rows = append(dups.rows, sqltypes.Row{
			sqltypes.NewInt(i), sqltypes.NewInt(int64(rng.Intn(5))),
		})
	}
	cat := memCatalog{"dups": dups}
	for _, order := range []string{"b", "b DESC", "b DESC, a", "b, a DESC"} {
		full := run(t, cat, fmt.Sprintf("SELECT a, b FROM dups ORDER BY %s", order))
		for _, limit := range []int{0, 1, 3, 17, 40, 100} {
			got := run(t, cat, fmt.Sprintf("SELECT a, b FROM dups ORDER BY %s LIMIT %d", order, limit))
			want := full.Rows
			if limit < len(want) {
				want = want[:limit]
			}
			if len(got.Rows) != len(want) {
				t.Fatalf("ORDER BY %s LIMIT %d: %d rows, want %d", order, limit, len(got.Rows), len(want))
			}
			for i := range want {
				for j := range want[i] {
					if got.Rows[i][j].I != want[i][j].I {
						t.Fatalf("ORDER BY %s LIMIT %d row %d: got %v, want %v",
							order, limit, i, got.Rows, want)
					}
				}
			}
		}
	}
	if _, err := sql.Parse("SELECT a FROM dups ORDER BY a LIMIT -1"); err == nil {
		rel, err := Run(mustParse(t, "SELECT a FROM dups ORDER BY a LIMIT -1"), cat, nil)
		if err == nil || !strings.Contains(err.Error(), "negative LIMIT") {
			t.Fatalf("negative LIMIT: rel=%v err=%v, want negative LIMIT error", rel, err)
		}
	}
}
