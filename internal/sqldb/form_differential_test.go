package sqldb

// form_differential_test.go is the storage-form differential: the same
// seeded rows stored as heap + B+tree (InsertRows) and as a segment
// (BulkLoad), the segment read back at a full vector-cache budget, a one-byte
// budget (the cache declines every table) and a negative one (no cache).
// Every read entry point must agree row for row across all four handles.

import (
	"fmt"
	"math/rand"
	"testing"

	"ptldb/internal/sqldb/exec"
	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/sqldb/storage"
)

// formRows draws n rows keyed (h, d) in ascending order: a scalar that may be
// negative and an array whose length ranges from empty to several pages.
func formRows(rng *rand.Rand, n int) []sqltypes.Row {
	rows := make([]sqltypes.Row, 0, n)
	for i := 0; i < n; i++ {
		ln := rng.Intn(40)
		if rng.Intn(25) == 0 {
			ln = 2000 + rng.Intn(3000)
		}
		xs := make([]int64, ln)
		for j := range xs {
			xs[j] = rng.Int63n(1<<40) - 1<<39
		}
		rows = append(rows, sqltypes.Row{
			sqltypes.NewInt(int64(i / 7)), sqltypes.NewInt(int64(i%7) * 10),
			sqltypes.NewInt(rng.Int63() - 1<<62), sqltypes.NewIntArray(xs),
		})
	}
	return rows
}

// formReads renders everything the read API returns for tbl — RowCount, both
// scans, and both lookups over present and absent keys — as one string list.
func formReads(t *testing.T, tbl *Table, keys [][]int64) []string {
	t.Helper()
	out := []string{fmt.Sprintf("count=%d", tbl.RowCount())}
	if err := tbl.Scan(func(r sqltypes.Row) error {
		out = append(out, fmt.Sprintf("scan %v", r))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var s exec.RowScratch
	if err := tbl.ScanScratch(&s, func(r sqltypes.Row) error {
		out = append(out, fmt.Sprintf("scanscratch %v", r))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		row, ok, err := tbl.LookupPK(key)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("lookup %v %v %v", key, ok, row))
		row, ok, err = tbl.LookupPKScratch(key, &s)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("lookupscratch %v %v %v", key, ok, row))
	}
	return out
}

func TestStorageFormDifferential(t *testing.T) {
	rows := formRows(rand.New(rand.NewSource(41)), 600)
	keys := [][]int64{{-1, 0}, {0, 5}, {3, 70}, {86, 0}, {1 << 40, 0}} // all absent
	for i := 0; i < len(rows); i += 13 {
		keys = append(keys, []int64{rows[i][0].I, rows[i][1].I})
	}
	load := func(dir string, fill func(*Table) error) {
		t.Helper()
		db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256})
		if err != nil {
			t.Fatal(err)
		}
		if err := fill(mkTable(t, db, "lab", []string{"h", "d"}, "h", "d", "v", "xs:arr")); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	heapDir, segDir := t.TempDir(), t.TempDir()
	load(heapDir, func(tbl *Table) error { return tbl.InsertRows(rows) })
	load(segDir, func(tbl *Table) error { return tbl.BulkLoad(rows) })

	var want []string
	for _, h := range []struct {
		name, dir string
		budget    int64
		isSeg     bool
		vcHits    bool
	}{
		{"heap", heapDir, 64 << 20, false, false},
		{"segment/full-budget", segDir, 64 << 20, true, true},
		{"segment/1-byte-budget", segDir, 1, true, false},
		{"segment/no-cache", segDir, -1, true, false},
	} {
		db, err := Open(h.dir, Options{Device: storage.RAM, PoolPages: 256, VectorCacheBytes: h.budget})
		if err != nil {
			t.Fatal(h.name, err)
		}
		tbl, _ := db.Table("lab")
		if _, isSeg := tbl.form.(*segForm); isSeg != h.isSeg {
			t.Fatalf("%s: table opened as %T", h.name, tbl.form)
		}
		got := formReads(t, tbl, keys)
		snap := db.Registry().Snapshot()
		if hit := snap.VCache != nil && snap.VCache.Hits > 0; hit != h.vcHits {
			t.Errorf("%s: vector cache served rows = %v, want %v (%+v)", h.name, hit, h.vcHits, snap.VCache)
		}
		if fromSeg := snap.Segment.Hits > 0; fromSeg != (h.isSeg && !h.vcHits) {
			t.Errorf("%s: segment hits = %d", h.name, snap.Segment.Hits)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			if len(want) != 1+2*len(rows)+2*len(keys) {
				t.Fatalf("heap reference has %d entries for %d rows and %d keys", len(want), len(rows), len(keys))
			}
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries, heap has %d", h.name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s differs from heap at entry %d:\n got:  %.200s\n want: %.200s", h.name, i, got[i], want[i])
			}
		}
	}
}
