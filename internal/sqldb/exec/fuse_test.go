package exec

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ptldb/internal/obs"
	"ptldb/internal/sqldb/sql"
	"ptldb/internal/sqldb/sqltypes"
)

func mustParse(t *testing.T, q string) *sql.Select {
	t.Helper()
	sel, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, q)
	}
	return sel
}

// mustFuse fuses q over cat: q must be a statement of the workload whose
// tables bind.
func mustFuse(t *testing.T, cat Catalog, q string) *FusedPlan {
	t.Helper()
	fp, err := Fuse(mustParse(t, q), cat)
	if err != nil || fp == nil {
		t.Fatalf("fuse: plan %v, error %v\n%s", fp, err, q)
	}
	return fp
}

// TestFuseRecognizesCodes: each of the ten texts of codes.go fuses as its own
// kind, with the statement's tables behind the plan's two table references —
// the query stop's label first — and the statement's bucket width.
func TestFuseRecognizesCodes(t *testing.T) {
	cases := []struct {
		kind, q       string
		label, second string
		width         int64
	}{
		{"v2v-ea", fmt.Sprintf(SQLV2VEA, "lout", "lin"), "lout", "lin", 0},
		{"v2v-ld", fmt.Sprintf(SQLV2VLD, "lout_v2", "lin_v2"), "lout_v2", "lin_v2", 0},
		{"v2v-sd", fmt.Sprintf(SQLV2VSD, "lout", "lin"), "lout", "lin", 0},
		{"v2v-ea-witness", fmt.Sprintf(SQLV2VEAWitness, "lout__weekend", "lin__weekend"), "lout__weekend", "lin__weekend", 0},
		{"knn-naive-ea", fmt.Sprintf(SQLKNNNaiveEA, "knn_naive_s", "lout"), "lout", "knn_naive_s", 0},
		{"knn-naive-ld", fmt.Sprintf(SQLKNNNaiveLD, "knn_naive_s_v2", "lout_v2"), "lout_v2", "knn_naive_s_v2", 0},
		{"knn-ea", fmt.Sprintf(SQLKNNEA, "knn_ea_s", 3600, "lout"), "lout", "knn_ea_s", 3600},
		{"otm-ea", fmt.Sprintf(SQLOTMEA, "otm_ea_s", 900, "lout"), "lout", "otm_ea_s", 900},
		{"knn-ld", fmt.Sprintf(SQLKNNLD, "knn_ld_s_v2", 900, "lout_v2"), "lout_v2", "knn_ld_s_v2", 900},
		{"otm-ld", fmt.Sprintf(SQLOTMLD, "otm_ld_s", 1, "LOUT"), "LOUT", "otm_ld_s", 1},
		// Identifiers compare case-insensitively, as the general executor
		// resolves them.
		{"knn-ea", strings.ToUpper(fmt.Sprintf(SQLKNNEA, "knn_ea_s", 50, "lout")), "LOUT", "KNN_EA_S", 50},
	}
	for _, tc := range cases {
		fp := recognize(mustParse(t, tc.q))
		if fp == nil {
			t.Errorf("%s: query did not fuse", tc.kind)
			continue
		}
		if fp.Kind() != tc.kind {
			t.Errorf("Kind() = %q, want %q", fp.Kind(), tc.kind)
		}
		if fp.tables[0].name != tc.label || fp.tables[1].name != tc.second || fp.width != tc.width {
			t.Errorf("%s: reads (%q, %q) at width %d, want (%q, %q) at %d", tc.kind,
				fp.tables[0].name, fp.tables[1].name, fp.width, tc.label, tc.second, tc.width)
		}
	}
}

// TestFuseRejectsNearMisses feeds queries that are one mutation away from a
// statement of the workload; none may fuse. The second group are other
// spellings of the same queries: they run on the general executor, which
// answers them exactly as it answers the canonical text.
func TestFuseRejectsNearMisses(t *testing.T) {
	v2vEA := fmt.Sprintf(SQLV2VEA, "lout", "lin")
	knnEA := fmt.Sprintf(SQLKNNEA, "aux_ea", auxWidth, "lout")
	cases := []struct {
		name string
		q    string
	}{
		{"strict reach comparison",
			strings.Replace(v2vEA, "outp.ta<=inp.td", "outp.ta<inp.td", 1)},
		{"wrong aggregate",
			strings.Replace(v2vEA, "MIN(inp.ta)", "MAX(inp.ta)", 1)},
		{"aggregate inside expression",
			strings.Replace(v2vEA, "MIN(inp.ta)", "MIN(inp.ta)-0", 1)},
		{"extra conjunct",
			v2vEA + " AND outp.hub>=0"},
		{"literal instead of parameter bound",
			strings.Replace(v2vEA, "outp.td>=$3", "outp.td>=100", 1)},
		{"cte shadows base table",
			// The second label scan reads FROM outp, which the general
			// executor resolves to the first CTE, not a base table.
			fmt.Sprintf(SQLV2VEA, "lout", "outp")},
		{"knn limit differs from slice bound",
			strings.Replace(fmt.Sprintf(SQLKNNNaiveEA, "naive", "lout"), "LIMIT $3", "LIMIT $2", 1)},
		{"knn missing order by",
			strings.Replace(fmt.Sprintf(SQLKNNNaiveEA, "naive", "lout"), "ORDER BY MIN(n2.ta), v2\n", "", 1)},
		{"condensed union all",
			strings.Replace(knnEA, "UNION", "UNION ALL", 1)},
		{"plain select", "SELECT a FROM nums"},
		{"zero width", strings.Replace(knnEA, "/50.0", "/0.0", 1)},
		{"fractional width", strings.Replace(knnEA, "/50.0", "/50.5", 1)},
	}
	for _, tc := range cases {
		if fp := recognize(mustParse(t, tc.q)); fp != nil {
			t.Errorf("%s: unexpectedly fused as %q", tc.name, fp.Kind())
		}
	}

	rng := rand.New(rand.NewSource(19))
	cat := memCatalog{
		"lout":   randLabelTable(rng, 5, 8),
		"lin":    randLabelTable(rng, 5, 8),
		"aux_ea": randAuxTable(rng, "dephour", "tas"),
	}
	spellings := []struct {
		name, canonical, q string
	}{
		{"renamed alias", v2vEA, strings.ReplaceAll(v2vEA, "outp", "o")},
		{"renumbered parameters", v2vEA,
			strings.NewReplacer("$1", "$2", "$2", "$1").Replace(v2vEA)},
		{"swapped join operands", v2vEA,
			strings.Replace(v2vEA, "outp.hub=inp.hub", "inp.hub=outp.hub", 1)},
		{"reordered conjuncts", v2vEA,
			strings.Replace(v2vEA, "outp.hub=inp.hub AND outp.ta<=inp.td", "outp.ta<=inp.td AND outp.hub=inp.hub", 1)},
		{"integer width", knnEA, strings.Replace(knnEA, "/50.0", "/50", 1)},
	}
	for _, tc := range spellings {
		if tc.q == tc.canonical {
			t.Fatalf("%s: the mutation did not apply", tc.name)
		}
		sel := mustParse(t, tc.q)
		if fp := recognize(sel); fp != nil {
			t.Errorf("%s: unexpectedly fused as %q", tc.name, fp.Kind())
		}
		canonical := mustParse(t, tc.canonical)
		for rep := 0; rep < 20; rep++ {
			a, b := sqltypes.NewInt(int64(rng.Intn(7))), sqltypes.NewInt(int64(rng.Intn(7)))
			params := []sqltypes.Value{a, b, sqltypes.NewInt(int64(rng.Intn(220)))}
			swapped := params
			switch tc.name {
			case "renumbered parameters":
				swapped = []sqltypes.Value{b, a, params[2]}
			case "integer width": // $1 = q, $2 = t, $3 = k
				params = []sqltypes.Value{a, params[2], sqltypes.NewInt(int64(rng.Intn(5)))}
				swapped = params
			}
			want, err := Run(canonical, cat, params)
			if err != nil {
				t.Fatalf("%s: canonical: %v", tc.name, err)
			}
			got, err := Run(sel, cat, swapped)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			compareRelations(t, got, want, params)
		}
	}
}

// --- differential harness -------------------------------------------------

// diffRun runs q through its fused plan over cat, whose tables recycle the
// scratch buffers with maximal hostility, and requires it to match the general
// executor's schema and rows exactly.
func diffRun(t *testing.T, cat memCatalog, q string, params []sqltypes.Value) {
	t.Helper()
	fp := mustFuse(t, cat, q)
	want, err := Run(mustParse(t, q), cat, params)
	if err != nil {
		t.Fatalf("general run (params %v): %v", params, err)
	}
	got, err := fp.Run(params)
	if err != nil {
		t.Fatalf("fused run (params %v): %v", params, err)
	}
	compareRelations(t, got, want, params)
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
// 1..nStops that declares its run order and keeps it: hubs, drawn from a small
// range so the two sides of the join collide, ascend, and departures and
// arrivals both ascend within a hub's run (each sorted on its own, which keeps
// every arrival after its departure).
func randLabelTable(rng *rand.Rand, nStops, maxEntries int) *memTable {
	tbl := &memTable{cols: labelCols, pk: []int{0}, runOrder: []int{1, 2, 3}}
	for v := int64(1); v <= int64(nStops); v++ {
		n := rng.Intn(maxEntries + 1)
		hubs := make([]int32, n)
		tds := make([]int32, n)
		tas := make([]int32, n)
		for i := 0; i < n; i++ {
			hubs[i] = int32(rng.Intn(4))
			tds[i] = int32(rng.Intn(200))
			tas[i] = tds[i] + 1 + int32(rng.Intn(80))
		}
		slices.Sort(hubs)
		for i := 0; i < n; {
			j := i
			for j < n && hubs[j] == hubs[i] {
				j++
			}
			slices.Sort(tds[i:j])
			slices.Sort(tas[i:j])
			i = j
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
		{fmt.Sprintf(SQLV2VEA, "lout", "lin"), 3},
		{fmt.Sprintf(SQLV2VLD, "lout", "lin"), 3},
		{fmt.Sprintf(SQLV2VSD, "lout", "lin"), 4},
		{fmt.Sprintf(SQLV2VEAWitness, "lout", "lin"), 3},
	}
	for trial := 0; trial < 30; trial++ {
		cat := memCatalog{
			"lout": randLabelTable(rng, 5, 8),
			"lin":  randLabelTable(rng, 5, 8),
		}
		for _, qq := range queries {
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
				diffRun(t, cat, qq.q, params)
			}
		}
	}
}

// randNaiveTable builds a (hub, td, vs, tas) condensed-naive table with one
// row per distinct (hub, td).
func randNaiveTable(rng *rand.Rand) *memTable {
	tbl := &memTable{cols: []string{"hub", "td", "vs", "tas"}, pk: []int{0, 1}, targetCols: []int{2}, bound: 106}
	for hub := int64(0); hub < 4; hub++ {
		seen := map[int64]bool{}
		for i := 0; i < 3; i++ {
			td := int64(rng.Intn(250))
			if seen[td] {
				continue
			}
			seen[td] = true
			n := rng.Intn(5)
			vs := make([]int32, n)
			tas := make([]int32, n)
			for j := 0; j < n; j++ {
				vs[j] = int32(100 + rng.Intn(6))
				tas[j] = int32(td) + int32(rng.Intn(120))
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
	qEA := fmt.Sprintf(SQLKNNNaiveEA, "naive", "lout")
	qLD := fmt.Sprintf(SQLKNNNaiveLD, "naive", "lout")
	for trial := 0; trial < 30; trial++ {
		cat := memCatalog{
			"lout":  randLabelTable(rng, 5, 8),
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

// auxWidth is the bucket width randAuxTable's EA tables declare their floor
// at, and so the width of every EA statement run against them.
const auxWidth = 50

// randAuxTable builds a condensed label table keyed (hub, bucket) with the
// top-k arrays (vs + top) and the expansion triple (tds_exp, vs_exp,
// tas_exp). bucketCol is "dephour" with top="tas" for EA, "arrhour" with
// top="tds" for LD. An EA table is shaped as the builder's are and declares
// their floor: a row's expanded connections depart inside its bucket, and no
// arrival in the row — on either arm, now and then exactly at the bucket's
// start — is earlier than that start at width auxWidth. Either declares the
// exact count of its distinct target ids.
func randAuxTable(rng *rand.Rand, bucketCol, top string) *memTable {
	tbl := &memTable{
		cols: []string{"hub", bucketCol, "vs", top, "tds_exp", "vs_exp", "tas_exp"},
		pk:   []int{1, 0}, // (bucket, hub), as every builder keys a condensed table
		// Targets are 100..105.
		targetCols: []int{2, 5}, bound: 106,
	}
	ea := bucketCol == "dephour"
	if ea {
		tbl.floorKey, tbl.floorWidth, tbl.floorCols = 1, auxWidth, []int{3, 6}
	}
	for hub := int64(0); hub < 4; hub++ {
		for bucket := int64(0); bucket < 8; bucket++ {
			if rng.Intn(4) == 0 {
				continue // leave some (hub, bucket) cells missing
			}
			start := int32(bucket * auxWidth)
			atOrAfter := func(lo int32) int32 {
				if rng.Intn(4) == 0 {
					return lo
				}
				return lo + int32(rng.Intn(120))
			}
			n := rng.Intn(4)
			vs := make([]int32, n)
			tops := make([]int32, n)
			for j := 0; j < n; j++ {
				vs[j] = int32(100 + rng.Intn(6))
				tops[j] = int32(rng.Intn(400))
				if ea {
					tops[j] = atOrAfter(start)
				}
			}
			m := rng.Intn(4)
			tdsExp := make([]int32, m)
			vsExp := make([]int32, m)
			tasExp := make([]int32, m)
			for j := 0; j < m; j++ {
				tdsExp[j] = int32(rng.Intn(400))
				if ea {
					tdsExp[j] = start + int32(rng.Intn(auxWidth))
				}
				vsExp[j] = int32(100 + rng.Intn(6))
				tasExp[j] = atOrAfter(tdsExp[j])
			}
			tbl.rows = append(tbl.rows, sqltypes.Row{
				sqltypes.NewInt(hub), sqltypes.NewInt(bucket),
				sqltypes.NewIntArray(vs), sqltypes.NewIntArray(tops),
				sqltypes.NewIntArray(tdsExp), sqltypes.NewIntArray(vsExp),
				sqltypes.NewIntArray(tasExp),
			})
		}
	}
	declareCount(tbl)
	return tbl
}

// declareCount makes tbl declare exactly the number of distinct target ids its
// rows hold — 1 when they hold none, the least a declaration says.
func declareCount(tbl *memTable) {
	ids := map[int32]bool{}
	for _, row := range tbl.rows {
		for _, c := range tbl.targetCols {
			for _, v := range row[c].A {
				ids[v] = true
			}
		}
	}
	tbl.count = max(len(ids), 1)
}

func TestFusedCondensedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const width = auxWidth
	queries := []struct {
		q       string
		nParams int
	}{
		{fmt.Sprintf(SQLKNNEA, "aux_ea", width, "lout"), 3},
		{fmt.Sprintf(SQLKNNLD, "aux_ld", width, "lout"), 3},
		{fmt.Sprintf(SQLOTMEA, "aux_ea", width, "lout"), 2},
		{fmt.Sprintf(SQLOTMLD, "aux_ld", width, "lout"), 2},
	}
	for trial := 0; trial < 25; trial++ {
		cat := memCatalog{
			"lout":   randLabelTable(rng, 5, 8),
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

// TestFusedTypedErrors: a fused plan binds or says what is wrong with a
// table, and a bound plan answers or says what is wrong. A table that is
// missing, lacks a column, has another key or does not declare what the
// kernel trusts fails Fuse, naming the table; every precondition Fuse cannot
// check fails Run with an error naming the plan kind (a parameter) or the
// table (a row that breaks a declaration: a target id outside the declared
// bound is reported, not answered with and not written anywhere).
func TestFusedTypedErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	zero, one, arr := sqltypes.NewInt(0), sqltypes.NewInt(1), sqltypes.NewIntArray
	ones := []sqltypes.Value{one, one, one}
	// Stop 1 reaches hub 0 at 20, in bucket 0 of width 50.
	lout := &memTable{cols: labelCols, pk: []int{0}, runOrder: []int{1, 2, 3},
		rows: []sqltypes.Row{{one, arr([]int32{0}), arr([]int32{10}), arr([]int32{20})}}}
	good := memCatalog{
		"lout":   lout,
		"lin":    randLabelTable(rng, 3, 5),
		"naive":  randNaiveTable(rng),
		"aux_ea": randAuxTable(rng, "dephour", "tas"),
	}
	// with returns good with one table replaced.
	with := func(name string, tbl *memTable) memCatalog {
		c := maps.Clone(good)
		c[name] = tbl
		return c
	}
	undeclared := *good["lin"]
	undeclared.runOrder = nil
	// Tables that declare no target ids, one column of the two, or a bound
	// their rows (targets 100..105) exceed.
	unboundNaive, unboundAux, halfAux, tightNaive, tightAux :=
		*good["naive"], *good["aux_ea"], *good["aux_ea"], *good["naive"], *good["aux_ea"]
	unboundNaive.targetCols, unboundAux.targetCols, halfAux.targetCols = nil, nil, []int{2}
	tightNaive.bound, tightAux.bound = 100, 100
	tightNaive.rows = []sqltypes.Row{{zero, sqltypes.NewInt(30), arr([]int32{3, 100}), arr([]int32{40, 41})}}
	tightAux.rows = []sqltypes.Row{{zero, zero, arr([]int32{7}), arr([]int32{60}), arr([]int32{20, 21}), arr([]int32{-1, 104}), arr([]int32{30, 31})}}
	// EA tables that declare no floor, one at another width than the
	// statement's, or one over the top-k arm alone.
	unflooredAux, widerFloorAux, halfFlooredAux := *good["aux_ea"], *good["aux_ea"], *good["aux_ea"]
	unflooredAux.floorCols, widerFloorAux.floorWidth, halfFlooredAux.floorCols = nil, 2*auxWidth, []int{3}
	// An EA table that declares no count of its target ids.
	uncountedAux := *good["aux_ea"]
	uncountedAux.count = 0

	v2vEA := fmt.Sprintf(SQLV2VEA, "lout", "lin")
	naiveEA := fmt.Sprintf(SQLKNNNaiveEA, "naive", "lout")
	knnEA := fmt.Sprintf(SQLKNNEA, "aux_ea", auxWidth, "lout")
	otmEA := fmt.Sprintf(SQLOTMEA, "aux_ea", auxWidth, "lout")
	cases := []struct {
		name, q string
		cat     memCatalog
		params  []sqltypes.Value // nil: Fuse fails
		want    []string         // fragments of the error
	}{
		{"null parameter", v2vEA, good, []sqltypes.Value{{}, one, one}, []string{"v2v-ea", "$1", "BIGINT"}},
		{"float parameter", v2vEA, good, []sqltypes.Value{one, sqltypes.NewFloat(1.5), one}, []string{"v2v-ea", "$2", "BIGINT"}},
		{"missing parameter", v2vEA, good, ones[:2], []string{"v2v-ea", "$3", "missing"}},
		{"negative k, naive", naiveEA, good, []sqltypes.Value{one, one, sqltypes.NewInt(-1)}, []string{"knn-naive-ea", "negative LIMIT"}},
		{"negative k, condensed", knnEA, good, []sqltypes.Value{one, one, sqltypes.NewInt(-2)}, []string{"knn-ea", "negative LIMIT"}},
		{"missing table", v2vEA, memCatalog{"lout": good["lout"]}, nil, []string{`"lin"`}},
		{"table without key", v2vEA,
			with("lout", &memTable{cols: labelCols, runOrder: []int{1, 2, 3}}), nil, []string{`"lout"`, "primary key"}},
		{"missing column", v2vEA,
			with("lout", &memTable{cols: []string{"v", "hubs", "tds"}, pk: []int{0}}), nil, []string{`"lout"`, `"tas"`}},
		{"no run order", v2vEA, with("lin", &undeclared), nil, []string{`"lin"`, "run order", "rebuild"}},
		{"no target bound, naive", naiveEA, with("naive", &unboundNaive), nil, []string{`"naive"`, `"vs"`, "rebuild"}},
		{"no target bound, condensed", knnEA, with("aux_ea", &unboundAux), nil, []string{`"aux_ea"`, `"vs"`, "rebuild"}},
		{"no target bound on the expanded arm", knnEA, with("aux_ea", &halfAux), nil, []string{`"aux_ea"`, `"vs_exp"`, "rebuild"}},
		{"target past the bound, naive", naiveEA, with("naive", &tightNaive), []sqltypes.Value{one, one, sqltypes.NewInt(5)},
			[]string{`"naive"`, "target id 100", "[0, 100)"}},
		{"target below zero, condensed", knnEA, with("aux_ea", &tightAux), ones, []string{`"aux_ea"`, "target id -1", "[0, 100)"}},
		{"no floor, EA condensed", knnEA, with("aux_ea", &unflooredAux), nil, []string{`"aux_ea"`, "floor dephour × 50", "rebuild"}},
		{"a floor at another width", knnEA, with("aux_ea", &widerFloorAux), nil, []string{`"aux_ea"`, "floor dephour × 50", "rebuild"}},
		{"no floor on the expanded arm", knnEA, with("aux_ea", &halfFlooredAux), nil, []string{`"aux_ea"`, `"tas_exp"`, "rebuild"}},
		{"no target count, EA one-to-many", otmEA, with("aux_ea", &uncountedAux), nil, []string{`"aux_ea"`, "target count", "rebuild"}},
		{"unequal label arrays", v2vEA,
			with("lout", &memTable{cols: labelCols, pk: []int{0}, runOrder: []int{1, 2, 3},
				rows: []sqltypes.Row{{one, arr([]int32{1, 2}), arr([]int32{5}), arr([]int32{6, 7})}}}),
			ones, []string{`"lout"`, "one length"}},
		{"unequal naive arrays", naiveEA,
			with("naive", &memTable{cols: good["naive"].cols, pk: []int{0, 1}, targetCols: []int{2}, bound: 106,
				rows: []sqltypes.Row{{zero, sqltypes.NewInt(30), arr([]int32{1, 2}), arr([]int32{5})}}}),
			ones, []string{`"naive"`, "vs, tas"}},
		{"unequal condensed arrays", knnEA,
			with("aux_ea", &memTable{cols: good["aux_ea"].cols, pk: []int{1, 0}, targetCols: []int{2, 5}, bound: 106,
				floorKey: 1, floorWidth: auxWidth, floorCols: []int{3, 6},
				rows: []sqltypes.Row{{zero, zero, arr(nil), arr(nil), arr([]int32{1}), arr(nil), arr(nil)}}}),
			ones, []string{`"aux_ea"`, "tds_exp"}},
		{"hub-first condensed table", knnEA,
			with("aux_ea", &memTable{cols: good["aux_ea"].cols, pk: []int{0, 1}, rows: good["aux_ea"].rows}),
			nil, []string{`"aux_ea"`, "primary key is not (dephour, hub)"}},
	}
	for _, tc := range cases {
		fp, err := Fuse(mustParse(t, tc.q), tc.cat)
		if tc.params == nil && fp != nil {
			t.Errorf("%s: fused", tc.name)
			continue
		}
		if tc.params != nil {
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			_, err = fp.Run(tc.params)
		}
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		for _, frag := range tc.want {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("%s: error %q lacks %q", tc.name, err, frag)
			}
		}
	}
}

// TestFusedPlanKeepsItsTableBound: plans of one statement bound to condensed
// tables that declare different bounds over the same rows each keep their
// table's. The plan over the table bound to 103 refuses, query after query and
// so on pooled states, the ids only the wider tables admit; the plans over the
// wider tables answer alike throughout.
func TestFusedPlanKeepsItsTableBound(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	one, arr := sqltypes.NewInt(1), sqltypes.NewIntArray
	wide := memCatalog{
		"lout": &memTable{cols: labelCols, pk: []int{0}, runOrder: []int{1, 2, 3},
			rows: []sqltypes.Row{{one, arr([]int32{0, 1, 2, 3}), arr([]int32{10, 10, 10, 10}), arr([]int32{20, 20, 20, 20})}}},
		"aux_ea": randAuxTable(rng, "dephour", "tas"),
	}
	tight := *wide["aux_ea"]
	tight.bound = 103 // the rows hold targets up to 105
	narrow := memCatalog{"lout": wide["lout"], "aux_ea": &tight}
	huge := *wide["aux_ea"]
	huge.bound = 1 << 16
	roomy := memCatalog{"lout": wide["lout"], "aux_ea": &huge}

	q := fmt.Sprintf(SQLOTMEA, "aux_ea", auxWidth, "lout")
	params := []sqltypes.Value{one, sqltypes.NewInt(0)}
	wideFP, narrowFP, roomyFP := mustFuse(t, wide, q), mustFuse(t, narrow, q), mustFuse(t, roomy, q)
	want, err := wideFP.Run(params)
	if err != nil || !slices.ContainsFunc(want.Rows, func(r sqltypes.Row) bool { return r[0].I >= 103 }) {
		t.Fatalf("wide table: %v, %v; want an answer holding a target past 102", want, err)
	}
	for round := 0; round < 3; round++ {
		if _, err := narrowFP.Run(params); err == nil || !strings.Contains(err.Error(), "[0, 103)") {
			t.Fatalf("round %d: a table bound to 103 answered with targets past it: %v", round, err)
		}
		for _, fp := range []*FusedPlan{roomyFP, wideFP} {
			got, err := fp.Run(params)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			compareRelations(t, got, want, params)
		}
	}
}

// countingCatalog is a memCatalog that counts the calls made to it.
type countingCatalog struct {
	memCatalog
	calls *int
}

func (c countingCatalog) Table(name string) (Table, bool) {
	*c.calls++
	return c.memCatalog.Table(name)
}

func (c countingCatalog) ExecMetrics() *obs.ExecMetrics {
	*c.calls++
	return c.memCatalog.ExecMetrics()
}

// TestFusedRunMakesNoCatalogCalls: Fuse looks each of a plan's two tables up
// once and takes the counters once; after that, no number of runs of any of
// the ten statements asks the catalog for anything.
func TestFusedRunMakesNoCatalogCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	calls := 0
	cat := countingCatalog{memCatalog{
		"lout":   randLabelTable(rng, 5, 8),
		"lin":    randLabelTable(rng, 5, 8),
		"naive":  randNaiveTable(rng),
		"aux_ea": randAuxTable(rng, "dephour", "tas"),
		"aux_ld": randAuxTable(rng, "arrhour", "tds"),
	}, &calls}
	for _, q := range []string{
		fmt.Sprintf(SQLV2VEA, "lout", "lin"),
		fmt.Sprintf(SQLV2VLD, "lout", "lin"),
		fmt.Sprintf(SQLV2VSD, "lout", "lin"),
		fmt.Sprintf(SQLV2VEAWitness, "lout", "lin"),
		fmt.Sprintf(SQLKNNNaiveEA, "naive", "lout"),
		fmt.Sprintf(SQLKNNNaiveLD, "naive", "lout"),
		fmt.Sprintf(SQLKNNEA, "aux_ea", auxWidth, "lout"),
		fmt.Sprintf(SQLOTMEA, "aux_ea", auxWidth, "lout"),
		fmt.Sprintf(SQLKNNLD, "aux_ld", auxWidth, "lout"),
		fmt.Sprintf(SQLOTMLD, "aux_ld", auxWidth, "lout"),
	} {
		calls = 0
		fp := mustFuse(t, cat, q)
		if calls != 3 {
			t.Errorf("%s: Fuse made %d catalog calls, want 3 (two tables, one counter set)", fp.Kind(), calls)
		}
		calls = 0
		for i := 0; i < 50; i++ {
			// Four parameters fit every statement: each reads the ones it has.
			params := []sqltypes.Value{sqltypes.NewInt(int64(rng.Intn(7))), sqltypes.NewInt(int64(rng.Intn(350))),
				sqltypes.NewInt(int64(rng.Intn(5))), sqltypes.NewInt(int64(rng.Intn(400)))}
			if _, err := fp.Run(params); err != nil {
				t.Fatalf("%s %v: %v", fp.Kind(), params, err)
			}
		}
		if calls != 0 {
			t.Errorf("%s: 50 runs made %d catalog calls, want 0", fp.Kind(), calls)
		}
	}
}

// TestPooledStateKeepsNoArenaView: a query state goes back to the pool holding
// no view into its scratch arenas outside the scratches themselves. The next
// query that takes the state rewrites the arenas from their start, so a label
// or row view kept in any other field would read that query's data (DESIGN.md
// §7.3). Every kind runs through scratch reads that put the label and each
// fetched row in an arena, and every state the pool hands back is
// searched field by field for an []int32 that points into either arena.
func TestPooledStateKeepsNoArenaView(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cat := memCatalog{
		"lout":   randLabelTable(rng, 5, 8),
		"lin":    randLabelTable(rng, 5, 8),
		"naive":  randNaiveTable(rng),
		"aux_ea": randAuxTable(rng, "dephour", "tas"),
		"aux_ld": randAuxTable(rng, "arrhour", "tds"),
	}
	stop := func() sqltypes.Value { return sqltypes.NewInt(int64(1 + rng.Intn(5))) }
	at := func() sqltypes.Value { return sqltypes.NewInt(int64(rng.Intn(350))) }
	k := func() sqltypes.Value { return sqltypes.NewInt(int64(1 + rng.Intn(4))) }
	v2v := func() []sqltypes.Value { return []sqltypes.Value{stop(), stop(), at()} }
	knn := func() []sqltypes.Value { return []sqltypes.Value{stop(), at(), k()} }
	otm := func() []sqltypes.Value { return []sqltypes.Value{stop(), at()} }
	for _, tc := range []struct {
		q      string
		params func() []sqltypes.Value
	}{
		{fmt.Sprintf(SQLV2VLD, "lout", "lin"), v2v},
		{fmt.Sprintf(SQLV2VEAWitness, "lout", "lin"), v2v},
		{fmt.Sprintf(SQLKNNNaiveEA, "naive", "lout"), knn},
		{fmt.Sprintf(SQLKNNNaiveLD, "naive", "lout"), knn},
		{fmt.Sprintf(SQLKNNEA, "aux_ea", auxWidth, "lout"), knn},
		{fmt.Sprintf(SQLKNNLD, "aux_ld", auxWidth, "lout"), knn},
		{fmt.Sprintf(SQLOTMEA, "aux_ea", auxWidth, "lout"), otm},
		{fmt.Sprintf(SQLOTMLD, "aux_ld", auxWidth, "lout"), otm},
	} {
		fp := mustFuse(t, cat, tc.q)
		checked := 0
		// The race detector's pool drops a quarter of what it is given, so a
		// run is not always followed by a state to inspect.
		for rep := 0; rep < 100 && checked < 10; rep++ {
			if _, err := fp.Run(tc.params()); err != nil {
				t.Fatalf("%s: %v", fp.Kind(), err)
			}
			st, _ := fp.states.Get().(*queryState)
			if st == nil {
				continue
			}
			checked++
			if views := arenaViews(reflect.ValueOf(st).Elem(), "queryState", st.scratch.Arena, st.scan.Arena); len(views) > 0 {
				t.Fatalf("%s: a pooled state keeps arena views in %v", fp.Kind(), views)
			}
			fp.states.Put(st)
		}
		if checked == 0 {
			t.Fatalf("%s: the pool never handed a state back", fp.Kind())
		}
	}
}

// arenaViews returns the path of every []int32 reachable from v through
// fields, arrays and slice elements — the arena fields themselves excepted —
// whose backing array lies inside one of the arenas.
func arenaViews(v reflect.Value, path string, arenas ...[]int32) []string {
	switch v.Kind() {
	case reflect.Struct:
		var out []string
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.Name != "Arena" {
				out = append(out, arenaViews(v.Field(i), path+"."+f.Name, arenas...)...)
			}
		}
		return out
	case reflect.Array, reflect.Slice:
		if v.Kind() == reflect.Slice && v.Type().Elem().Kind() == reflect.Int32 {
			for _, a := range arenas {
				lo := reflect.ValueOf(a).Pointer()
				if p := v.Pointer(); v.Cap() > 0 && cap(a) > 0 && p >= lo && p < lo+uintptr(cap(a))*4 {
					return []string{path}
				}
			}
			return nil
		}
		if v.Kind() == reflect.Slice {
			v = v.Slice(0, v.Cap())
		}
		var out []string
		for i := 0; i < v.Len(); i++ {
			out = append(out, arenaViews(v.Index(i), fmt.Sprintf("%s[%d]", path, i), arenas...)...)
		}
		return out
	}
	return nil
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
