package sqldb

// coldread_test.go pins what a cold start costs in device reads — Open reads
// the image once, front to back, and a table the vector cache cannot hold is
// never bulk-read — and that the size the cache admits a table on, worked out
// at open from the row and element counts of its segment's header, is exactly
// the size of the vectors built later.

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"ptldb/internal/sqldb/exec"
	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/sqldb/storage"
)

// awkwardTables are row sets chosen to stress the size prediction: it must
// hold whatever the mix of scalars, arrays, runs and elements.
var awkwardTables = []struct {
	name     string
	pk       []string
	cols     []string
	rows     func() []sqltypes.Row
	runOrder []string
}{
	{"labels", []string{"k"}, []string{"k", "hubs:arr", "tds:arr", "tas:arr"}, func() []sqltypes.Row {
		var rows []sqltypes.Row
		for i := int64(0); i < 2000; i++ {
			n := int(i % 37)
			a, b, c := make([]int32, n), make([]int32, n), make([]int32, n)
			for j := range a {
				a[j], b[j], c[j] = int32(j)*3, 20000+int32(i)*int32(j), 90000-int32(j)*400
			}
			rows = append(rows, sqltypes.Row{sqltypes.NewInt(i), sqltypes.NewIntArray(a), sqltypes.NewIntArray(b), sqltypes.NewIntArray(c)})
		}
		return rows
	}, nil},
	{"empty_arrays", []string{"k"}, []string{"k", "xs:arr", "ys:arr"}, func() []sqltypes.Row {
		var rows []sqltypes.Row
		for i := int64(0); i < 300; i++ {
			rows = append(rows, sqltypes.Row{sqltypes.NewInt(i), sqltypes.NewIntArray(nil), sqltypes.NewIntArray([]int32{})})
		}
		return rows
	}, nil},
	{"negative_deltas", []string{"k"}, []string{"k", "v", "xs:arr"}, func() []sqltypes.Row {
		var rows []sqltypes.Row
		for i := int64(-50); i < 50; i++ {
			rows = append(rows, sqltypes.Row{sqltypes.NewInt(i), sqltypes.NewInt(math.MinInt64 + i + 50),
				sqltypes.NewIntArray([]int32{math.MaxInt32, math.MinInt32, 0, -1, int32(i) << 24, -(int32(i) << 20)})})
		}
		return rows
	}, nil},
	{"scalar_only", []string{"k"}, []string{"k", "a", "b"}, func() []sqltypes.Row {
		var rows []sqltypes.Row
		for i := int64(0); i < 1000; i++ {
			rows = append(rows, ints(i, i*i*i, -i<<33))
		}
		return rows
	}, nil},
	{"two_column_key", []string{"b", "h"}, []string{"b", "h", "vs:arr", "tas:arr"}, func() []sqltypes.Row {
		var rows []sqltypes.Row
		for b := int64(0); b < 24; b++ {
			for h := int64(0); h < 40; h += 1 + b%3 {
				rows = append(rows, sqltypes.Row{sqltypes.NewInt(b), sqltypes.NewInt(h),
					sqltypes.NewIntArray([]int32{int32(h), int32(h) + 1}), sqltypes.NewIntArray([]int32{int32(b) * 3600})})
			}
		}
		return rows
	}, nil},
	{"zero_rows", []string{"k"}, []string{"k", "xs:arr"}, func() []sqltypes.Row { return []sqltypes.Row{} }, nil},
	// Hubs stored as runs: runs of one to seven tuples, empty labels among
	// them, and the hubs column between a scalar and its siblings.
	{"hub_runs", []string{"k"}, []string{"k", "hubs:arr", "w", "tds:arr", "tas:arr"}, func() []sqltypes.Row {
		var rows []sqltypes.Row
		for i := int64(0); i < 1500; i++ {
			n := int(i % 53)
			hubs, tds, tas := make([]int32, n), make([]int32, n), make([]int32, n)
			for j := range hubs {
				hubs[j], tds[j], tas[j] = int32(j/(1+int(i)%7))*5, int32(i)+int32(j), 90000+int32(j)
			}
			rows = append(rows, sqltypes.Row{sqltypes.NewInt(i), sqltypes.NewIntArray(hubs), sqltypes.NewInt(-i),
				sqltypes.NewIntArray(tds), sqltypes.NewIntArray(tas)})
		}
		return rows
	}, []string{"hubs", "tds", "tas"}},
}

// buildAwkwardDB bulk-loads awkwardTables into dir and closes the database.
func buildAwkwardDB(t *testing.T, dir string) {
	t.Helper()
	db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range awkwardTables {
		def := mkTable(spec.name, spec.pk, spec.cols...)
		def.RunOrder = spec.runOrder
		if _, err := tryLoad(db, def, spec.rows()...); err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// rowVectorBytes works a table's vector size out from its rows and its
// column tags alone: 16·rows + 8·scalar values + 4·int32s + 4·(rows·arrays +
// 1), where an INT[] column holds an int32 per element and a runs column two
// per run.
func rowVectorBytes(tags []sqltypes.Type, rows []sqltypes.Row) int64 {
	n, scalars, elems, arrays := int64(len(rows)), int64(0), int64(0), int64(0)
	for ci, typ := range tags {
		if typ == sqltypes.Int64 {
			scalars += n
			continue
		}
		arrays++
		for _, r := range rows {
			if typ == sqltypes.IntRuns {
				elems += 2 * int64(sqltypes.RunCount(r[ci].A))
			} else {
				elems += int64(len(r[ci].A))
			}
		}
	}
	return 16*n + 8*scalars + 4*elems + 4*(n*arrays+1)
}

// TestVectorSizePrediction: for every awkward table the size predicted from
// its segment's header, the size worked out from the rows, Mat.Bytes and the
// bytes actually allocated all agree, and decode allocates per column, not
// per row; a run-ordered table's header tags its leading column as runs. The prediction holds for all-BIGINT/INT[] tables only, so a
// table with a DOUBLE or TEXT column is never registered with the cache.
func TestVectorSizePrediction(t *testing.T) {
	dir := t.TempDir()
	buildAwkwardDB(t, dir)
	db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256, VectorCacheBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, spec := range awkwardTables {
		sf, _ := db.Table(spec.name)
		rows := spec.rows()
		want := rowVectorBytes(sf.stored, rows)

		data, tags, elems := dataRegion(t, dir, sf)
		if got := vectorBytes(tags, sf.seg.NumRows(), elems); got != want {
			t.Errorf("%s: predicted %d bytes of vectors, its rows need %d", spec.name, got, want)
		}
		if runs := slices.Index(tags, sqltypes.IntRuns); (spec.runOrder != nil) != (runs == 1) ||
			(runs == 1 && (tags[3] != sqltypes.IntRunGaps || tags[4] != sqltypes.IntRunOffsets)) {
			t.Errorf("%s: the header's column tags are %v; want the hubs as runs, tds as gaps and tas as offsets exactly when it declares a run order", spec.name, tags)
		}

		m := sf.vc // what Open decoded
		// The scalar columns share Ints; the array columns share Elems and
		// Starts.
		allocated := int64(cap(m.Keys))*16 + 8*int64(cap(m.Ints)) + 4*int64(cap(m.Elems)) + 4*int64(cap(m.Starts))
		if len(m.Ints) != cap(m.Ints) || len(m.Elems) != cap(m.Elems) || len(m.Starts) != cap(m.Starts) {
			t.Errorf("%s: shared vectors have slack: ints %d/%d, elems %d/%d, starts %d/%d", spec.name,
				len(m.Ints), cap(m.Ints), len(m.Elems), cap(m.Elems), len(m.Starts), cap(m.Starts))
		}
		if m.Bytes != want || allocated != want {
			t.Errorf("%s: Mat.Bytes %d, allocated %d, want %d", spec.name, m.Bytes, allocated, want)
		}
		var s exec.RowScratch
		for i, r := range rows {
			got := vcacheRow(m, sf.stored, i, &s)
			for ci := range r {
				if got[ci].T == sqltypes.IntRuns {
					got[ci] = sqltypes.NewIntArray(sqltypes.ExpandRuns(got[ci].A))
				}
				if !sqltypes.Equal(got[ci], r[ci]) {
					t.Fatalf("%s: row %d column %d = %v, want %v", spec.name, i, ci, got[ci], r[ci])
				}
			}
		}

		// Five allocations whatever the row count — the int64, int32 and
		// starts vectors, the one row the rows decode into and the Mat — and
		// one more under the race detector.
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := sf.decode(data, elems); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 6 {
			t.Errorf("%s: decode made %.0f allocations for %d rows, want <= 6", spec.name, allocs, len(rows))
		}
	}
	// A load writes a new image, so these come after the reads of the
	// awkward tables' segments in the image Open read.
	for _, cols := range [][]string{{"k", "lat:float"}, {"k", "name:text"}, {"k", "xs:arr", "name:text", "lat:float"}} {
		def := mkTable("mixed"+strings.Join(cols, "_"), []string{"k"}, cols...)
		row := sqltypes.Row{sqltypes.NewInt(1)}
		for _, c := range def.Columns[1:] {
			row = append(row, map[sqltypes.Type]sqltypes.Value{
				sqltypes.Float64:  sqltypes.NewFloat(30.25),
				sqltypes.Text:     sqltypes.NewText("Congress Ave"),
				sqltypes.IntArray: sqltypes.NewIntArray([]int32{1, 2, 3}),
			}[c.Type])
		}
		before := db.Registry().VCache.Snapshot()
		tbl := load(t, db, def, row)
		got, ok, err := tbl.LookupPK([]int64{1})
		if err != nil || !ok || !sqltypes.Equal(got[len(got)-1], row[len(row)-1]) {
			t.Fatalf("%v: LookupPK = %v, %v, %v", cols, got, ok, err)
		}
		if after := db.Registry().VCache.Snapshot(); tbl.vc != nil || !reflect.DeepEqual(after, before) {
			t.Errorf("%v: a table with a DOUBLE or TEXT column touched the vector cache: %+v -> %+v", cols, before, after)
		}
	}
}

// dataRegion reads tbl's data region in the image of dir again, with the
// column tags and the element count its header records, as open does.
func dataRegion(t *testing.T, dir string, tbl *Table) ([]byte, []sqltypes.Type, int) {
	t.Helper()
	var tags []sqltypes.Type
	var meta segMeta
	at := storage.PageID(segmentOf(t, dir, tbl.def.Name).off / storage.PageSize)
	_, data, err := storage.OpenSegment(tbl.file, at, tbl.db.pool, func(_ int, cols, raw []byte) (bool, error) {
		for _, c := range cols {
			tags = append(tags, sqltypes.Type(c))
		}
		return true, json.Unmarshal(raw, &meta)
	})
	if err != nil {
		t.Fatal(err)
	}
	return data, tags, int(meta.Elems)
}

// TestOpenReadsEachFileOnce: opening an N-segment database costs one seek —
// the directory has one file, the image, and every page after its first is
// the next page of it.
func TestOpenReadsEachFileOnce(t *testing.T) {
	dir := t.TempDir()
	buildAwkwardDB(t, dir)
	requireOnlyImage(t, dir)
	if n := len(imageSegments(t, dir)); n != len(awkwardTables) {
		t.Fatalf("the image holds %d segments, want %d", n, len(awkwardTables))
	}
	st, err := os.Stat(filepath.Join(dir, ImageName))
	if err != nil {
		t.Fatal(err)
	}
	files, pages := uint64(1), uint64(st.Size()/storage.PageSize)
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
	if _, err := tryLoad(db, mkTable(spec.name, spec.pk, spec.cols...), rows...); err != nil {
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

// TestDeclinedTableKeepsNoRegion: a table too large for the cache is declined
// from its segment's header, which gives its exact vector size, before its
// data region is read, so the region is never allocated: the open allocates
// what an open without a cache does, give or take a few closures, not the
// region's kilobytes — under a budget one byte short of the table's vectors.
func TestDeclinedTableKeepsNoRegion(t *testing.T) {
	spec := awkwardTables[0]
	rows := spec.rows()
	dir := t.TempDir()
	db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := tryLoad(db, mkTable(spec.name, spec.pk, spec.cols...), rows...)
	if err != nil {
		t.Fatal(err)
	}
	budget := rowVectorBytes(tbl.types, rows) - 1
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(filepath.Join(dir, ImageName)) // the table's segment alone
	if err != nil {
		t.Fatal(err)
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
	var rows []sqltypes.Row
	for i := int64(0); i < 8; i++ { // key byte + two length bytes + one byte per zero: exactly one page per row
		rows = append(rows, sqltypes.Row{sqltypes.NewInt(i), sqltypes.NewIntArray(make([]int32, storage.PageSize-3))})
	}
	tbl := load(t, db, mkTable("wide", []string{"k"}, "k", "xs:arr"), rows...)
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
	load(t, db, mkTable("lab", []string{"k"}, "k", "xs:arr"), sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewIntArray([]int32{1, 2})},
		sqltypes.Row{sqltypes.NewInt(2), sqltypes.NewIntArray([]int32{3})})
	db = reopen(t, db, Options{Device: storage.RAM, PoolPages: 256, VectorCacheBytes: 1 << 20})
	tbl, _ := db.Table("lab")
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
