package sqldb

import (
	"testing"

	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/sqldb/storage"
)

func benchDB(b *testing.B) *DB {
	b.Helper()
	db, err := Open(b.TempDir(), Options{Device: storage.RAM, PoolPages: 4096})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

// BenchmarkParseCode1 measures parsing of the paper's Code 1 text.
func BenchmarkParseCode1(b *testing.B) {
	db := benchDB(b)
	const q = `
WITH outp AS
  (SELECT UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta
   FROM lout WHERE v=$1),
inp AS
  (SELECT UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta
   FROM lin WHERE v=$2)
SELECT MIN(inp.ta)
FROM outp, inp
WHERE outp.hub=inp.hub AND outp.ta<=inp.td AND outp.td>=$3`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Prepare(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPointLookupSQL measures a PK point query end to end.
func BenchmarkPointLookupSQL(b *testing.B) {
	db := benchDB(b)
	tbl, err := db.CreateTable(TableDef{Name: "kv", PK: []string{"k"},
		Columns: []ColumnDef{{Name: "k", Type: sqltypes.Int64}, {Name: "v", Type: sqltypes.Int64}}})
	if err != nil {
		b.Fatal(err)
	}
	var rows []sqltypes.Row
	for i := int64(0); i < 10000; i++ {
		rows = append(rows, ints(i, i*2))
	}
	load(b, tbl, rows...)
	st, err := db.Prepare("SELECT v FROM kv WHERE k = $1")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := st.Query(sqltypes.NewInt(int64(i % 10000)))
		if err != nil || len(rel.Rows) != 1 {
			b.Fatal(len(rel.Rows), err)
		}
	}
}

// BenchmarkUnnestJoinAggregate measures the Code 1 execution shape in
// isolation: unnest two array rows, hash join on the first column, filter
// and aggregate.
func BenchmarkUnnestJoinAggregate(b *testing.B) {
	db := benchDB(b)
	for _, name := range []string{"lo", "li"} {
		tbl, err := db.CreateTable(TableDef{Name: name, PK: []string{"v"},
			Columns: []ColumnDef{
				{Name: "v", Type: sqltypes.Int64},
				{Name: "hubs", Type: sqltypes.IntArray},
				{Name: "tds", Type: sqltypes.IntArray},
				{Name: "tas", Type: sqltypes.IntArray},
			}})
		if err != nil {
			b.Fatal(err)
		}
		// 1000-tuple label: 50 hubs x 20 departures.
		var hubs, tds, tas []int64
		for h := int64(0); h < 50; h++ {
			for d := int64(0); d < 20; d++ {
				hubs = append(hubs, h)
				tds = append(tds, 30000+d*600)
				tas = append(tas, 30000+d*600+900)
			}
		}
		load(b, tbl, sqltypes.Row{sqltypes.NewInt(0),
			sqltypes.NewIntArray(hubs), sqltypes.NewIntArray(tds), sqltypes.NewIntArray(tas)})
	}
	st, err := db.Prepare(`
WITH outp AS
  (SELECT UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta FROM lo WHERE v=$1),
inp AS
  (SELECT UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta FROM li WHERE v=$1)
SELECT MIN(inp.ta)
FROM outp, inp
WHERE outp.hub=inp.hub AND outp.ta<=inp.td AND outp.td>=$2`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := st.Query(sqltypes.NewInt(0), sqltypes.NewInt(31000))
		if err != nil || len(rel.Rows) != 1 {
			b.Fatal(err)
		}
	}
}
