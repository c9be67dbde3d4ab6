package sqldb

// open_parallel_test.go pins the parallel decode at Open: tables are admitted
// one after another in image order, so admission is the same on every open
// whatever order the decodes finish in; a decode that fails fails the open,
// naming its table, with every file closed and every worker gone; and a
// query issued right after Open finds every admitted table resident.

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"ptldb/internal/sqldb/exec"
	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/sqldb/storage"
)

// labelRows returns n rows (k, [k, …, k+width-1]).
func labelRows(n, width int64) []sqltypes.Row {
	rows := make([]sqltypes.Row, n)
	for k := range n {
		xs := make([]int32, width)
		for j := range xs {
			xs[j] = int32(k) + int32(j)
		}
		rows[k] = sqltypes.Row{sqltypes.NewInt(k), sqltypes.NewIntArray(xs)}
	}
	return rows
}

// buildTables bulk-loads one (k, xs) table per entry of widths into dir,
// named t1, t2, … in image order, each of n rows whose arrays have that
// width, and returns each table's vector size.
func buildTables(t *testing.T, dir string, n int64, widths ...int64) []int64 {
	t.Helper()
	db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int64, len(widths))
	for i, w := range widths {
		rows := labelRows(n, w)
		tbl := load(t, db, mkTable("t"+string(rune('1'+i)), []string{"k"}, "k", "xs:arr"), rows...)
		sizes[i] = rowVectorBytes(tbl.types, rows)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return sizes
}

// TestParallelOpenIsDeterministic: under a budget that fits tables 1 and 3
// of the image but not 2, fifty opens admit exactly {1, 3}, decode both
// and serve their first lookups from the vectors, reading nothing and
// missing nothing; table 2 answers from its segment.
func TestParallelOpenIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	sizes := buildTables(t, dir, 2000, 6, 12, 5)
	budget := sizes[0] + sizes[2]
	if sizes[1] <= sizes[2] {
		t.Fatalf("sizes %v: table 2 must not fit where table 3 does", sizes)
	}
	for i := range 50 {
		db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256, VectorCacheBytes: budget})
		if err != nil {
			t.Fatal(err)
		}
		var admitted []string
		for _, name := range []string{"t1", "t2", "t3"} {
			if tbl, _ := db.Table(name); tbl.vc != nil {
				admitted = append(admitted, name)
			}
		}
		before := db.Registry().Snapshot()
		var s exec.RowScratch
		for _, name := range []string{"t1", "t3"} {
			tbl, _ := db.Table(name)
			if row, ok, err := tbl.LookupPKScratch([]int64{1234}, &s); err != nil || !ok || row[1].A[0] != 1234 {
				t.Fatalf("open %d: %s lookup = %v, %v, %v", i, name, row, ok, err)
			}
		}
		after := db.Registry().Snapshot()
		vc := after.VCache
		if strings.Join(admitted, ",") != "t1,t3" || vc.Declined != 1 || vc.Materializations != 2 || vc.ResidentBytes != budget {
			t.Fatalf("open %d: admitted %v, vcache %+v; want t1 and t3 resident in %d bytes, t2 declined", i, admitted, *vc, budget)
		}
		if vc.Misses != 0 || vc.Hits != before.VCache.Hits+2 || after.Pool.Misses != before.Pool.Misses {
			t.Fatalf("open %d: the first lookups after Open: %d vcache misses, %d hits, %d pool misses; want two hits and nothing else",
				i, vc.Misses, vc.Hits-before.VCache.Hits, after.Pool.Misses-before.Pool.Misses)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelOpenFailsClosed: one of four admitted tables holds a row that
// passes its checksum but not the decode. Open fails naming that table,
// every file it opened is closed and no decode worker outlives it.
func TestParallelOpenFailsClosed(t *testing.T) {
	dir := t.TempDir()
	buildTables(t, dir, 2000, 3, 3, 3, 3)
	// t3 anew, its row 1000 one byte longer than its values.
	sd := storage.SegmentData{Cols: []byte{byte(sqltypes.Int64), byte(sqltypes.IntArray)}, PKLen: 1}
	for k, r := range labelRows(2000, 3) {
		b, err := sqltypes.EncodeSegRow(nil, []sqltypes.Type{sqltypes.Int64, sqltypes.IntArray}, r)
		if err != nil {
			t.Fatal(err)
		}
		if k == 1000 {
			b = append(b, 0)
		}
		sd.Keys = append(sd.Keys, storage.Key{int64(k)})
		sd.Lens = append(sd.Lens, uint32(len(b)))
		sd.Data = append(sd.Data, b...)
	}
	writeSegmentInto(t, dir, "t3", sd)
	fds, goroutines := openFDs(t), runtime.NumGoroutine()
	for range 10 {
		db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256, VectorCacheBytes: 64 << 20})
		if err == nil {
			db.Close()
			t.Fatal("Open admitted a table with a malformed row")
		}
		if !strings.Contains(err.Error(), `sqldb: table "t3": `) {
			t.Fatalf("Open = %v, want an error naming t3", err)
		}
	}
	if got := openFDs(t); got != fds {
		t.Errorf("failed opens leaked file descriptors: %d before, %d after", fds, got)
	}
	// A worker has signalled the wait group before it returns; give the
	// scheduler a moment to retire it.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > goroutines {
		t.Errorf("failed opens left %d goroutines behind", got-goroutines)
	}
}
