package ptldb

// coldstart_test.go pins what a cold start costs in device reads, on the
// image the benchmark's disk_cold workload measures (Austin ×0.15, simulated
// HDD, a 64 KiB vector cache): Open reads every file once, front to back —
// one seek per file, and one more for the metadata row — and a table the
// cache cannot hold is decided on at open from its exact vector size, so the
// first query reads its rows' own pages and no table is bulk-read to be
// thrown away. It also checks that size against the vectors actually built,
// table by table, on the paper's Figure 1 store and a synthetic city.

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ptldb/internal/csa"
	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/sqldb/storage"
	"ptldb/internal/timetable"
)

func TestColdStartReads(t *testing.T) {
	const kmax = 4
	tt, err := GenerateCity("Austin", 0.15, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := tt.NumStops()
	rng := rand.New(rand.NewSource(1))
	var targets []StopID
	for _, v := range rng.Perm(n)[:n/10] {
		targets = append(targets, StopID(v))
	}
	dir := t.TempDir()
	db, err := Create(dir, tt, Config{Device: "ram"})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddTargetSet("poi", targets, kmax); err != nil {
		db.Close()
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Every file but the catalog is a segment — lout, lin, stops, ptldb_meta
	// and the five tables of the target set — and a segment is read whole.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files, segPages := uint64(0), uint64(0)
	for _, e := range entries {
		if e.Name() == "catalog.json" {
			continue
		}
		if !strings.HasSuffix(e.Name(), ".seg") {
			t.Errorf("%s in the database directory: want segments and the catalog only", e.Name())
			continue
		}
		st, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files++
		segPages += uint64(st.Size() / storage.PageSize)
	}
	if files != 9 {
		t.Errorf("the image holds %d segments, want 9", files)
	}

	db, err = Open(dir, Config{Device: "hdd", VectorCacheBytes: 64 << 10, PoolPages: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// One seek per file, every other page the next page of its file; then the
	// store reads its metadata row, one page the open pass did not keep.
	opened := db.Snapshot()
	if opened.Pool.RandReads != files+1 || opened.Pool.Misses != 1 {
		t.Errorf("open cost %d seeks (%d through the pool) for %d files, want one per file and one for the metadata row",
			opened.Pool.RandReads, opened.Pool.Misses, files)
	}
	if opened.Pool.SeqReads != segPages-files {
		t.Errorf("open read %d pages sequentially; the segments hold %d beyond their first",
			opened.Pool.SeqReads, segPages-files)
	}
	if opened.VCache.Declined == 0 || opened.VCache.Materializations != 0 {
		t.Errorf("after open: vcache = %+v; want the label tables declined and nothing built", *opened.VCache)
	}

	// The first queries after open: each reads its rows' pages through the
	// pool — two seeks for a v2v, one per label — and nothing else.
	for i := 0; i < 20; i++ {
		s, g := StopID(rng.Intn(n)), StopID(rng.Intn(n))
		when := tt.MinTime() + Time(rng.Int63n(int64(tt.Span())+1))
		if err := db.DropCaches(); err != nil {
			t.Fatal(err)
		}
		before := db.Snapshot()
		got, ok, err := db.EarliestArrival(s, g, when)
		if err != nil {
			t.Fatal(err)
		}
		after := db.Snapshot()
		seeks := after.Pool.RandReads - before.Pool.RandReads
		reads := seeks + after.Pool.SeqReads - before.Pool.SeqReads
		if pages := after.Pool.Misses - before.Pool.Misses; seeks > 2 || reads != pages {
			t.Errorf("EA(%d, %d, %d): %d seeks, %d device reads for %d pool misses; want <= 2 seeks and no read past the pool",
				s, g, when, seeks, reads, pages)
		}
		want := csa.EarliestArrival(tt, s, g, when)
		if ok != (want != timetable.Infinity) || (ok && got != want) {
			t.Errorf("EA(%d, %d, %d) = %d, %v; the oracle has %d", s, g, when, got, ok, want)
		}
	}
	if vc := db.Snapshot().VCache; vc.Materializations != 0 || vc.Declined != opened.VCache.Declined {
		t.Errorf("after the queries: vcache = %+v; want no materialization of a declined table", *vc)
	}
}

// TestVectorSizeMatchesPrediction touches the tables of a store one at a
// time under an ample budget. The cache admits a table on the size predicted
// at open and refuses vectors of any other size, so each touch succeeding
// proves prediction == Mat.Bytes; the resident bytes growing by exactly the
// size worked out here from the rows proves both are right.
func TestVectorSizeMatchesPrediction(t *testing.T) {
	austin, err := GenerateCity("Austin", 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, city := range []struct {
		name    string
		tt      *Network
		targets []StopID
	}{
		{"figure1", timetable.PaperExample(), []StopID{4, 6}},
		{"austin", austin, []StopID{1, 2, 5, StopID(austin.NumStops() - 1)}},
	} {
		dir := t.TempDir()
		db, err := Create(dir, city.tt, Config{Device: "ram"})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := db.AddTargetSet("poi", city.targets, 4); err != nil {
			t.Fatal(err)
		}
		if err := db.DropCaches(); err != nil {
			t.Fatal(err)
		}
		sdb := db.Store().DB
		checked := 0
		for _, name := range sdb.Tables() {
			tbl, _ := sdb.Table(name)
			if name == "stops" || name == "ptldb_meta" {
				continue // a table with a DOUBLE or TEXT column has no vectors
			}
			before := db.Snapshot().VCache
			// 16·rows + 8·(scalar values + elements) + 4·(rows·arrays + 1).
			rows, values, arrays := int64(0), int64(0), int64(0)
			err := tbl.Scan(func(r sqltypes.Row) error {
				rows++
				for _, v := range r {
					if v.T == sqltypes.Int64 {
						values++
					} else {
						values += int64(len(v.A))
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", city.name, name, err)
			}
			for _, c := range tbl.Def().Columns {
				if c.Type == sqltypes.IntArray {
					arrays++
				}
			}
			want := 16*rows + 8*values + 4*(rows*arrays+1)
			after := db.Snapshot().VCache
			if got := after.ResidentBytes - before.ResidentBytes; got != want || after.Materializations != before.Materializations+1 {
				t.Errorf("%s/%s: %d rows materialized into %d bytes (%d materializations), its rows need %d",
					city.name, name, rows, got, after.Materializations-before.Materializations, want)
			}
			checked++
		}
		if checked < 7 || db.Snapshot().VCache.Declined != 0 {
			t.Errorf("%s: checked %d segment tables, %d declined; want the two labels and five target-set tables, none declined",
				city.name, checked, db.Snapshot().VCache.Declined)
		}
	}
}
