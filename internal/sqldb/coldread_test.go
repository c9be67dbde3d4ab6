package sqldb

// coldread_test.go pins what a cold start costs in device reads — Open reads
// every file once, front to back, and a table the vector cache cannot hold is
// never bulk-read — and that the size the cache admits a table on, worked out
// at open from a varint count, is exactly the size of the vectors built later.

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"ptldb/internal/sqldb/exec"
	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/sqldb/storage"
)

// awkwardTables are row sets chosen to stress the size prediction: it must
// hold whatever the mix of scalars, length prefixes and elements.
var awkwardTables = []struct {
	name string
	pk   []string
	cols []string
	rows func() []sqltypes.Row
}{
	{"labels", []string{"k"}, []string{"k", "hubs:arr", "tds:arr", "tas:arr"}, func() []sqltypes.Row {
		var rows []sqltypes.Row
		for i := int64(0); i < 2000; i++ {
			n := int(i % 37)
			a, b, c := make([]int64, n), make([]int64, n), make([]int64, n)
			for j := range a {
				a[j], b[j], c[j] = int64(j)*3, 20000+i*int64(j), 90000-int64(j)*400
			}
			rows = append(rows, sqltypes.Row{sqltypes.NewInt(i), sqltypes.NewIntArray(a), sqltypes.NewIntArray(b), sqltypes.NewIntArray(c)})
		}
		return rows
	}},
	{"empty_arrays", []string{"k"}, []string{"k", "xs:arr", "ys:arr"}, func() []sqltypes.Row {
		var rows []sqltypes.Row
		for i := int64(0); i < 300; i++ {
			rows = append(rows, sqltypes.Row{sqltypes.NewInt(i), sqltypes.NewIntArray(nil), sqltypes.NewIntArray([]int64{})})
		}
		return rows
	}},
	{"negative_deltas", []string{"k"}, []string{"k", "v", "xs:arr"}, func() []sqltypes.Row {
		var rows []sqltypes.Row
		for i := int64(-50); i < 50; i++ {
			rows = append(rows, sqltypes.Row{sqltypes.NewInt(i), sqltypes.NewInt(math.MinInt64 + i + 50),
				sqltypes.NewIntArray([]int64{math.MaxInt64, math.MinInt64, 0, -1, i << 40, -(i << 20)})})
		}
		return rows
	}},
	{"scalar_only", []string{"k"}, []string{"k", "a", "b"}, func() []sqltypes.Row {
		var rows []sqltypes.Row
		for i := int64(0); i < 1000; i++ {
			rows = append(rows, ints(i, i*i*i, -i<<33))
		}
		return rows
	}},
	{"two_column_key", []string{"b", "h"}, []string{"b", "h", "vs:arr", "tas:arr"}, func() []sqltypes.Row {
		var rows []sqltypes.Row
		for b := int64(0); b < 24; b++ {
			for h := int64(0); h < 40; h += 1 + b%3 {
				rows = append(rows, sqltypes.Row{sqltypes.NewInt(b), sqltypes.NewInt(h),
					sqltypes.NewIntArray([]int64{h, h + 1}), sqltypes.NewIntArray([]int64{b * 3600})})
			}
		}
		return rows
	}},
	{"zero_rows", []string{"k"}, []string{"k", "xs:arr"}, func() []sqltypes.Row { return []sqltypes.Row{} }},
}

// buildAwkwardDB bulk-loads awkwardTables into dir and closes the database.
func buildAwkwardDB(t *testing.T, dir string) {
	t.Helper()
	db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range awkwardTables {
		if err := mkTable(t, db, spec.name, spec.pk, spec.cols...).BulkLoad(spec.rows()); err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// rowVectorBytes works a table's vector size out from its rows alone:
// 16·rows + 8·(scalar values + elements) + 4·(rows·arrays + 1).
func rowVectorBytes(types []sqltypes.Type, rows []sqltypes.Row) int64 {
	n, values, arrays := int64(len(rows)), int64(0), int64(0)
	for ci, typ := range types {
		if typ == sqltypes.Int64 {
			values += n
			continue
		}
		arrays++
		for _, r := range rows {
			values += int64(len(r[ci].A))
		}
	}
	return 16*n + 8*values + 4*(n*arrays+1)
}

// TestVectorSizePrediction: for every awkward table the size predicted from
// the varint count, the size worked out from the rows, Mat.Bytes and the
// bytes actually allocated all agree, and decode allocates per column, not
// per row. The prediction holds for all-BIGINT/BIGINT[] tables only, so a
// table with a DOUBLE or TEXT column is never registered with the cache.
func TestVectorSizePrediction(t *testing.T) {
	dir := t.TempDir()
	buildAwkwardDB(t, dir)
	db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256, VectorCacheBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, cols := range [][]string{{"k", "lat:float"}, {"k", "name:text"}, {"k", "xs:arr", "name:text", "lat:float"}} {
		tbl := mkTable(t, db, "mixed"+strings.Join(cols, "_"), []string{"k"}, cols...)
		row := sqltypes.Row{sqltypes.NewInt(1)}
		for _, c := range tbl.Def().Columns[1:] {
			row = append(row, map[sqltypes.Type]sqltypes.Value{
				sqltypes.Float64:  sqltypes.NewFloat(30.25),
				sqltypes.Text:     sqltypes.NewText("Congress Ave"),
				sqltypes.IntArray: sqltypes.NewIntArray([]int64{1, 2, 3}),
			}[c.Type])
		}
		before := db.Registry().VCache.Snapshot()
		load(t, tbl, row)
		got, ok, err := tbl.LookupPK([]int64{1})
		if err != nil || !ok || !sqltypes.Equal(got[len(got)-1], row[len(row)-1]) {
			t.Fatalf("%v: LookupPK = %v, %v, %v", cols, got, ok, err)
		}
		if after := db.Registry().VCache.Snapshot(); tbl.vc != nil || !reflect.DeepEqual(after, before) {
			t.Errorf("%v: a table with a DOUBLE or TEXT column touched the vector cache: %+v -> %+v", cols, before, after)
		}
	}
	for _, spec := range awkwardTables {
		sf, _ := db.Table(spec.name)
		rows := spec.rows()
		want := rowVectorBytes(sf.types, rows)

		data, varints := dataRegion(t, sf)
		if got := vectorBytes(sf.types, sf.seg.NumRows(), varints); got != want {
			t.Errorf("%s: predicted %d bytes of vectors, its rows need %d", spec.name, got, want)
		}

		m := sf.vc // what Open decoded
		// The scalar columns own a vector each; the array columns share
		// Elems and Starts, counted once.
		allocated := int64(cap(m.Keys))*16 + 8*int64(cap(m.Elems)) + 4*int64(cap(m.Starts))
		if len(m.Elems) != cap(m.Elems) || len(m.Starts) != cap(m.Starts) {
			t.Errorf("%s: shared vectors have slack: elems %d/%d, starts %d/%d", spec.name,
				len(m.Elems), cap(m.Elems), len(m.Starts), cap(m.Starts))
		}
		for ci := range m.Cols {
			col := &m.Cols[ci]
			if col.Starts != nil {
				continue
			}
			if len(col.Ints) != cap(col.Ints) {
				t.Errorf("%s: column %d has slack: ints %d/%d", spec.name, ci, len(col.Ints), cap(col.Ints))
			}
			allocated += 8 * int64(cap(col.Ints))
		}
		if m.Bytes != want || allocated != want {
			t.Errorf("%s: Mat.Bytes %d, allocated %d, want %d", spec.name, m.Bytes, allocated, want)
		}
		var s exec.RowScratch
		for i, r := range rows {
			got := vcacheRow(m, i, &s)
			for ci := range r {
				if !sqltypes.Equal(got[ci], r[ci]) {
					t.Fatalf("%s: row %d column %d = %v, want %v", spec.name, i, ci, got[ci], r[ci])
				}
			}
		}

		// Five allocations whatever the row count — the int64 and starts
		// vectors, one row's scalars, the Mat and its column headers — and
		// one more under the race detector.
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := sf.decode(data, varints); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 6 {
			t.Errorf("%s: decode made %.0f allocations for %d rows, want <= 6", spec.name, allocs, len(rows))
		}
	}
}

// dataRegion reads tbl's data region again and counts its varints, as open
// does.
func dataRegion(t *testing.T, tbl *Table) ([]byte, int) {
	t.Helper()
	varints := 0
	_, data, err := storage.OpenSegment(tbl.file, tbl.db.pool, func(_, _ int, chunk []byte) bool {
		varints += sqltypes.CountSegVarints(chunk)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return data, varints
}

// TestOpenReadsEachFileOnce: opening an N-segment database costs N seeks —
// every other page of every file is the next page of that file.
func TestOpenReadsEachFileOnce(t *testing.T) {
	dir := t.TempDir()
	buildAwkwardDB(t, dir)
	files, pages := uint64(0), uint64(0)
	for _, spec := range awkwardTables {
		st, err := os.Stat(filepath.Join(dir, spec.name+".seg"))
		if err != nil {
			t.Fatal(err)
		}
		files++
		pages += uint64(st.Size() / storage.PageSize)
	}
	db, err := Open(dir, Options{Device: storage.HDD, PoolPages: 256, VectorCacheBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	pool := db.Registry().Snapshot().Pool
	if pool.RandReads != files || pool.SeqReads != pages-files {
		t.Errorf("open charged %d random + %d sequential reads for %d files of %d pages; want %d + %d",
			pool.RandReads, pool.SeqReads, files, pages, files, pages-files)
	}
	want := storage.HDD.RandRead*time.Duration(files) + storage.HDD.SeqRead*time.Duration(pages-files)
	if got := db.Clock().Elapsed(); got != want {
		t.Errorf("open charged %v of device time, want %v", got, want)
	}
}

// TestDeclinedTableIsNeverBulkRead: under a budget one byte short of a
// table's vectors the table is declined at open, a lookup right after open
// reads nothing (the open pass left the table's pages in the pool), and the
// first lookup after the caches are dropped reads the row's own pages and
// nothing else; at exactly its size the table is admitted, open reads each
// of its pages exactly once, and lookups read none.
func TestDeclinedTableIsNeverBulkRead(t *testing.T) {
	spec := awkwardTables[0]
	rows := spec.rows()
	dir := t.TempDir()
	db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := mkTable(t, db, spec.name, spec.pk, spec.cols...).BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	const probe = 1234
	open := func(budget int64) (*DB, *Table) {
		db, err := Open(dir, Options{Device: storage.HDD, PoolPages: 256, VectorCacheBytes: budget})
		if err != nil {
			t.Fatal(err)
		}
		tbl, _ := db.Table(spec.name)
		return db, tbl
	}
	lookup := func(db *DB) {
		tbl, _ := db.Table(spec.name)
		var s exec.RowScratch
		row, ok, err := tbl.LookupPKScratch([]int64{probe}, &s)
		if err != nil || !ok || !sqltypes.Equal(row[2], rows[probe][2]) {
			t.Fatalf("lookup(%d) = %v, %v, %v", probe, row, ok, err)
		}
	}

	db, sf := open(1)
	size := rowVectorBytes(sf.types, rows)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, sf = open(size - 1)
	if sf.vc != nil {
		t.Fatal("a table larger than the budget holds a cache share")
	}
	var off int64
	for i := 0; i < probe; i++ {
		off += int64(sf.seg.RowLen(i))
	}
	rowPages := uint64((off+int64(sf.seg.RowLen(probe))-1)/storage.PageSize - off/storage.PageSize + 1)
	reads := sf.file.Reads()
	lookup(db)
	if got, misses := sf.file.Reads()-reads, db.Registry().Snapshot().Pool.Misses; got != 0 || misses != 0 {
		t.Errorf("lookup of a declined table right after open: %d device reads, %d pool misses; want none", got, misses)
	}
	db.DropCaches()
	before, reads := db.Registry().Snapshot(), sf.file.Reads()
	lookup(db)
	after := db.Registry().Snapshot()
	if got := sf.file.Reads() - reads; got != rowPages || after.Pool.Misses-before.Pool.Misses != rowPages ||
		after.Pool.RandReads-before.Pool.RandReads != 1 {
		t.Errorf("first lookup of a declined table: %d device reads, %d pool misses, %d seeks; its row lies on %d pages",
			got, after.Pool.Misses-before.Pool.Misses, after.Pool.RandReads-before.Pool.RandReads, rowPages)
	}
	if vc := after.VCache; vc.Declined != 1 || vc.Materializations != 0 || vc.Hits+vc.Misses != 0 || vc.ResidentBytes != 0 {
		t.Errorf("declined table: vcache = %+v; want declined 1 and nothing else", *vc)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, sf = open(size)
	defer db.Close()
	if got, pages := sf.file.Reads(), uint64(sf.file.NumPages()); got != pages {
		t.Errorf("admitted table: open made %d device reads of its %d pages; want each page once", got, pages)
	}
	reads = sf.file.Reads()
	lookup(db)
	lookup(db)
	after = db.Registry().Snapshot()
	if vc := after.VCache; vc.Declined != 0 || vc.Materializations != 1 || vc.ResidentBytes != size || vc.Hits != 2 || vc.Misses != 0 {
		t.Errorf("table that fits exactly: vcache = %+v; want one materialization of %d bytes and two hits", *vc, size)
	}
	if got := sf.file.Reads() - reads; got != 0 || after.Pool.Misses != 0 {
		t.Errorf("admitted table: lookups made %d device reads and %d pool misses; want none", got, after.Pool.Misses)
	}
}

// TestDeclinedTableKeepsNoRegion: a table too large for the cache is let go
// at the first chunk of its open pass, before its data region is allocated,
// even when the varints of that chunk alone would fit: the region's size
// bounds its varints from below too. The open allocates what an open without
// a cache does, give or take a few closures, not the region's kilobytes.
func TestDeclinedTableKeepsNoRegion(t *testing.T) {
	spec := awkwardTables[0]
	rows := spec.rows()
	dir := t.TempDir()
	db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	tbl := mkTable(t, db, spec.name, spec.pk, spec.cols...)
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	types, size := tbl.types, rowVectorBytes(tbl.types, rows)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(filepath.Join(dir, spec.name+".seg"))
	if err != nil {
		t.Fatal(err)
	}
	first := sqltypes.CountSegVarints(image[storage.PageSize : 2*storage.PageSize])
	budget := vectorBytes(types, len(rows), first) + 1
	if budget >= size {
		t.Fatalf("a budget of %d bytes holds the table's %d; the test wants it declined", budget, size)
	}
	allocated := func(budget int64) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256, VectorCacheBytes: budget})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if vc := db.Registry().Snapshot().VCache; vc != nil && vc.Declined != 1 {
			t.Errorf("budget %d: vcache = %+v; want the table declined", budget, *vc)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	allocated(0) // whatever an open allocates once per process
	without, declined := allocated(0), allocated(budget)
	if declined > without+uint64(len(image))/8 {
		t.Errorf("an open declining the table allocated %d bytes, one without a cache %d; its file is %d bytes",
			declined, without, len(image))
	}
}

// dataPages is the number of pages of tbl's data region.
func dataPages(tbl *Table) int {
	bytes := 0
	for i := 0; i < tbl.seg.NumRows(); i++ {
		bytes += int(tbl.seg.RowLen(i))
	}
	return (bytes + storage.PageSize - 1) / storage.PageSize
}

// scanMatches reads every row of tbl and compares it with rows.
func scanMatches(t *testing.T, tbl *Table, rows []sqltypes.Row) {
	t.Helper()
	i := 0
	err := tbl.Scan(func(r sqltypes.Row) error {
		if i >= len(rows) || len(r) != len(rows[i]) {
			t.Fatalf("%s: row %d = %v, want %d rows", tbl.def.Name, i, r, len(rows))
		}
		for ci := range r {
			if !sqltypes.Equal(r[ci], rows[i][ci]) {
				t.Fatalf("%s: row %d column %d = %v, want %v", tbl.def.Name, i, ci, r[ci], rows[i][ci])
			}
		}
		i++
		return nil
	})
	if err != nil || i != len(rows) {
		t.Fatalf("%s: scanned %d of %d rows: %v", tbl.def.Name, i, len(rows), err)
	}
}

// TestOpenFillsFreeFrames: with no vector cache every data page the open
// pass reads goes to the buffer pool. A pool larger than the image ends up
// holding each of them; a pool half its size fills up and stops, evicting
// nothing, and the tables still read back exactly what was loaded.
func TestOpenFillsFreeFrames(t *testing.T) {
	dir := t.TempDir()
	buildAwkwardDB(t, dir)
	db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, spec := range awkwardTables {
		tbl, _ := db.Table(spec.name)
		total += dataPages(tbl)
	}
	if n := db.Pool().NumFrames(); n != total {
		t.Errorf("a pool larger than the image holds %d frames after open; the tables have %d data pages", n, total)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if total < 16 {
		t.Fatalf("the image has %d data pages; the test wants a pool of at least 8 below it", total)
	}

	db, err = Open(dir, Options{Device: storage.RAM, PoolPages: total / 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	pool := db.Registry().Snapshot().Pool
	if n := db.Pool().NumFrames(); n != total/2 || pool.Evictions != 0 || pool.Hits != 0 || pool.Misses != 0 {
		t.Errorf("a pool of %d frames under %d data pages: %d frames and %+v after open; want it full and no counter moved",
			total/2, total, n, pool)
	}
	for _, spec := range awkwardTables {
		tbl, _ := db.Table(spec.name)
		scanMatches(t, tbl, spec.rows())
	}
}

// TestDropCachesForgetsReadPosition: a query after DropCaches is a cold
// start, so its first page costs a seek even when it happens to follow the
// page the previous query read last. Two lookups of rows on adjacent pages,
// with DropCaches between them, are each charged exactly one random read.
func TestDropCachesForgetsReadPosition(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Device: storage.HDD, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl := mkTable(t, db, "wide", []string{"k"}, "k", "xs:arr")
	var rows []sqltypes.Row
	for i := int64(0); i < 8; i++ { // key byte + two length bytes + one byte per zero: exactly one page per row
		rows = append(rows, sqltypes.Row{sqltypes.NewInt(i), sqltypes.NewIntArray(make([]int64, storage.PageSize-3))})
	}
	load(t, tbl, rows...)
	for _, k := range []int64{3, 4, 5} {
		db.DropCaches()
		before := db.Registry().Snapshot().Pool
		if _, ok, err := tbl.LookupPK([]int64{k}); err != nil || !ok {
			t.Fatalf("LookupPK(%d) = %v, %v", k, ok, err)
		}
		after := db.Registry().Snapshot().Pool
		if pages, seeks, seq := after.Misses-before.Misses, after.RandReads-before.RandReads, after.SeqReads-before.SeqReads; pages != 1 || seeks != 1 || seq != 0 {
			t.Errorf("cold lookup of row %d: %d pages, %d random + %d sequential reads; want 1 page, 1 seek", k, pages, seeks, seq)
		}
	}
}

// TestDropCachesKeepsVectors: DropCaches empties the pool — bytes a reader
// took from it before stay valid — and leaves the resident vectors: they are
// what the table's open decoded, like its key directory.
func TestDropCachesKeepsVectors(t *testing.T) {
	db := newTestDB(t)
	tbl := mkTable(t, db, "lab", []string{"k"}, "k", "xs:arr")
	load(t, tbl, sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewIntArray([]int64{1, 2})},
		sqltypes.Row{sqltypes.NewInt(2), sqltypes.NewIntArray([]int64{3})})
	db = reopen(t, db, Options{Device: storage.RAM, PoolPages: 256, VectorCacheBytes: 1 << 20})
	tbl, _ = db.Table("lab")
	vc := db.Registry().VCache
	resident := vc.ResidentBytes.Load()
	if resident == 0 || vc.Materializations.Load() != 1 {
		t.Fatalf("%d resident bytes after %d materializations; want the table resident", resident, vc.Materializations.Load())
	}
	header, err := db.Pool().Get(tbl.file, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := string(header)
	db.DropCaches()
	if got, n := vc.ResidentBytes.Load(), db.Pool().NumFrames(); got != resident || n != 0 {
		t.Fatalf("DropCaches left %d resident bytes and %d frames; want %d and 0", got, n, resident)
	}
	if string(header) != want {
		t.Fatal("DropCaches changed the bytes of a page a reader held")
	}
	if row, ok, err := tbl.LookupPK([]int64{1}); err != nil || !ok || len(row[1].A) != 2 || vc.Materializations.Load() != 1 {
		t.Fatalf("LookupPK(1) = %v, %v, %v after %d materializations; want a hit on the resident vectors", row, ok, err, vc.Materializations.Load())
	}
}
