package sqldb

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ptldb/internal/sqldb/exec"
	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/sqldb/storage"
)

// TestVcacheRowArrayViews: vcacheRow reads a row's scalars and arrays
// straight out of the Mat's vectors — a runs column as an IntRuns value in
// its run form — and caps every array view at its own end, so an append
// through one cannot overwrite the next array's elements.
func TestVcacheRowArrayViews(t *testing.T) {
	// Two rows of (k, xs, hubs as runs), row-major: (10, [1 2], no run) and
	// (20, [3 4 5], one run of 6 ending at 1).
	stored := []sqltypes.Type{sqltypes.Int64, sqltypes.IntArray, sqltypes.IntRuns}
	m := &Mat{
		Keys:   []storage.Key{{10}, {20}},
		Ints:   []int64{10, 20},
		Elems:  []int32{1, 2, 3, 4, 5, 6, 1},
		Starts: []int32{0, 2, 2, 5, 7},
	}
	want := []sqltypes.Row{
		{sqltypes.NewInt(10), sqltypes.NewIntArray([]int32{1, 2}), {T: sqltypes.IntRuns, A: []int32{}}},
		{sqltypes.NewInt(20), sqltypes.NewIntArray([]int32{3, 4, 5}), {T: sqltypes.IntRuns, A: []int32{6, 1}}},
	}
	var s exec.RowScratch
	for i, w := range want {
		got := vcacheRow(m, stored, i, &s)
		for ci := range w {
			if got[ci].T != w[ci].T || got[ci].I != w[ci].I || fmt.Sprint(got[ci].A) != fmt.Sprint(w[ci].A) || len(got[ci].A) != len(w[ci].A) {
				t.Fatalf("row %d column %d = %v %v, want %v %v", i, ci, got[ci].T, got[ci], w[ci].T, w[ci])
			}
		}
		// The full-slice expression must cap each view so an append cannot
		// clobber the next array's elements.
		_ = append(got[1].A, 99)
		_ = append(got[2].A, 99)
	}
	if fmt.Sprint(m.Elems) != "[1 2 3 4 5 6 1]" {
		t.Fatalf("appends through the views overwrote the decoded vector: %v", m.Elems)
	}
}

// TestCloseFreesVectors: a statement binds its tables, so a closed handle that
// is still referenced through one must not keep the tables' vectors. Close lets
// them go and empties the pool, and a query through the statement then fails:
// it reads an image that is closed.
func TestCloseFreesVectors(t *testing.T) {
	db := newTestDB(t)
	load(t, db, mkTable("t", []string{"a"}, "a", "b:arr"),
		sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewIntArray([]int32{10, 11})},
		sqltypes.Row{sqltypes.NewInt(2), sqltypes.NewIntArray([]int32{20})})
	db = reopen(t, db, Options{Device: storage.RAM, PoolPages: 256, VectorCacheBytes: 1 << 20})
	st, err := db.Prepare("SELECT b FROM t WHERE a = $1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Query(sqltypes.NewInt(1)); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("t")
	if tbl.vc == nil {
		t.Fatal("the table was not admitted to the vector cache")
	}
	var freed atomic.Bool
	runtime.SetFinalizer(tbl.vc, func(*Mat) { freed.Store(true) })
	tbl = nil
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20 && !freed.Load(); i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if !freed.Load() {
		t.Error("the vectors of a closed handle stay reachable through its prepared statement")
	}
	if n := db.Pool().NumFrames(); n != 0 {
		t.Errorf("the closed handle's pool holds %d frames, want 0", n)
	}
	if rel, err := st.Query(sqltypes.NewInt(1)); err == nil {
		t.Errorf("a query on a closed handle answered %v, want an error", rel.Rows)
	}
	runtime.KeepAlive(db)
	runtime.KeepAlive(st)
}
