package sqldb

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/sqldb/storage"
)

func TestColArray(t *testing.T) {
	// Two rows of two array columns, row-major: ([1 2], []) and ([3 4 5], [6]).
	elems, starts := []int32{1, 2, 3, 4, 5, 6}, []int32{0, 2, 2, 5, 6}
	xs := Col{Elems: elems, Starts: starts, Stride: 2}
	ys := Col{Elems: elems, Starts: starts[1:], Stride: 2}
	for _, c := range []struct {
		col  *Col
		row  int
		want []int32
	}{{&xs, 0, []int32{1, 2}}, {&ys, 0, nil}, {&xs, 1, []int32{3, 4, 5}}, {&ys, 1, []int32{6}}} {
		if got := c.col.Array(c.row); fmt.Sprint(got) != fmt.Sprint(c.want) || len(got) != len(c.want) {
			t.Fatalf("Array(%d) = %v, want %v", c.row, got, c.want)
		}
	}
	// The full-slice expression must cap the view so an append cannot
	// clobber the next array's elements.
	_ = append(xs.Array(1), 99)
	if elems[5] != 6 {
		t.Fatal("append through an Array view overwrote the decoded vector")
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
