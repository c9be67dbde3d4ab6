package ptldb

// coldstart_test.go pins what a cold start costs in device reads, on the
// image the benchmark's disk_cold workload measures (Austin ×0.15, simulated
// HDD, a 64 KiB vector cache): Open reads the image once, front to back —
// one seek for the directory and nothing else — and leaves every data page it
// reads in a free frame of the buffer pool, so the first queries after Open read
// nothing from the device, the metadata row included. A table the cache
// cannot hold is decided on at open from its exact vector size, so once the
// caches are dropped a query reads its rows' own pages and no table is
// bulk-read to be thrown away. It also checks that size against the vectors
// Open builds, table by table, on the paper's Figure 1 store and a synthetic
// city.

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ptldb/internal/csa"
	"ptldb/internal/sqldb"
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
	if err := createAndWrite(t, dir, tt, Config{Device: "ram"}, addPOI(targets, kmax)).Close(); err != nil {
		t.Fatal(err)
	}

	// The image, which holds a segment per table — lout,
	// lin, stops, ptldb_meta and the five tables of the target set — and is
	// read whole.
	requireOnlyImage(t, dir)
	if n := len(imageSegments(t, dir)); n != 9 {
		t.Errorf("the image holds %d segments, want 9", n)
	}
	st, err := os.Stat(filepath.Join(dir, sqldb.ImageName))
	if err != nil {
		t.Fatal(err)
	}
	imagePages := uint64(st.Size() / storage.PageSize)

	db, err := Open(dir, Config{Device: "hdd", VectorCacheBytes: 64 << 10, PoolPages: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// One seek, every other page the next page of the image; the store's
	// metadata row is then read from the page the open pass left in the pool.
	opened := db.Snapshot()
	if opened.Pool.RandReads != 1 || opened.Pool.Misses != 0 {
		t.Errorf("open cost %d seeks (%d through the pool), want one and none through the pool",
			opened.Pool.RandReads, opened.Pool.Misses)
	}
	if opened.Pool.SeqReads != imagePages-1 {
		t.Errorf("open read %d pages sequentially; the image holds %d beyond its first",
			opened.Pool.SeqReads, imagePages-1)
	}
	if opened.VCache.Declined == 0 || opened.VCache.Materializations != 0 {
		t.Errorf("after open: vcache = %+v; want the label tables declined and nothing built", *opened.VCache)
	}

	// The first queries after open — an EA, an EA kNN and an LD one-to-many,
	// from a stop outside the target set (the oracle treats a target as a
	// query stop differently) — find every page they read in the pool.
	inSet := map[StopID]bool{}
	for _, v := range targets {
		inSet[v] = true
	}
	q := StopID(rng.Intn(n))
	for inSet[q] {
		q = StopID(rng.Intn(n))
	}
	g, when := StopID(rng.Intn(n)), tt.MinTime()+tt.Span()/3
	arr, ok, err := db.EarliestArrival(q, g, when)
	if err != nil {
		t.Fatal(err)
	}
	if want := csa.EarliestArrival(tt, q, g, when); ok != (want != timetable.Infinity) || (ok && arr != want) {
		t.Errorf("first EA(%d, %d, %d) = %d, %v; the oracle has %d", q, g, when, arr, ok, want)
	}
	knn, err := db.EAKNN("poi", q, when, kmax)
	if err != nil {
		t.Fatal(err)
	}
	checkNeighbors(t, "first EA kNN", knn, csa.EarliestArrivalKNN(tt, q, targets, when, kmax))
	otm, err := db.LDOTM("poi", q, when)
	if err != nil {
		t.Fatal(err)
	}
	checkNeighbors(t, "first LD one-to-many", otm, csa.LatestDepartureKNN(tt, q, targets, when, len(targets)))
	first := db.Snapshot().Pool
	if reads, misses := first.RandReads+first.SeqReads-opened.Pool.RandReads-opened.Pool.SeqReads,
		first.Misses-opened.Pool.Misses; reads != 0 || misses != 0 {
		t.Errorf("the first EA, EA kNN and LD one-to-many after Open: %d device reads, %d pool misses; want none", reads, misses)
	}

	// Once the caches are dropped each query reads its rows' pages through
	// the pool — two seeks for a v2v, one per label, though both labels lie
	// in the one image — and nothing else.
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
		if pages := after.Pool.Misses - before.Pool.Misses; seeks != 2 || reads != pages {
			t.Errorf("EA(%d, %d, %d): %d seeks, %d device reads for %d pool misses; want 2 seeks and no read past the pool",
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

// checkNeighbors compares a kNN or one-to-many answer with the oracle's:
// the same length, the same time at every position, and each stop's own
// optimum (ties may order equal times differently).
func checkNeighbors(t *testing.T, what string, got []Result, want []csa.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, the oracle has %d", what, len(got), len(want))
	}
	exact := map[StopID]Time{}
	for _, nb := range want {
		exact[nb.Stop] = nb.When
	}
	for i, r := range got {
		if opt, ok := exact[r.Stop]; !ok || opt != r.When || r.When != want[i].When {
			t.Errorf("%s: position %d is %v, the oracle has %v there", what, i, r, want[i])
		}
	}
}

// TestVectorSizeMatchesPrediction reopens a store under budgets that grow
// by one table at a time, in image order: the sum of the vector sizes
// worked out here from the rows of the first k all-integer tables. Open
// admits a table on the size its segment's header gives (row and element
// counts; the label hubs are stored as runs) and refuses vectors
// of any other size, so the open succeeding proves prediction == Mat.Bytes;
// exactly the first k tables resident, in exactly that many bytes, proves
// both are right, table by table.
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
		db := createAndWrite(t, dir, city.tt, Config{Device: "ram"}, addPOI(city.targets, 4))
		sdb := db.Store().DB
		names := sdb.Tables()
		slices.Sort(names) // image order
		var sizes []int64
		for _, name := range names {
			if name == "stops" || name == "ptldb_meta" {
				continue // a table with a DOUBLE or TEXT column has no vectors
			}
			tbl, _ := sdb.Table(name)
			// 16·rows + 8·scalar values + 4·elements + 4·(rows·arrays + 1).
			rows, scalars, elems, arrays := int64(0), int64(0), int64(0), int64(0)
			err := tbl.Scan(func(r sqltypes.Row) error {
				rows++
				for _, v := range r {
					if v.T == sqltypes.Int64 {
						scalars++
					} else {
						elems += int64(len(v.A))
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
			sizes = append(sizes, 16*rows+8*scalars+4*elems+4*(rows*arrays+1))
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if len(sizes) != 7 {
			t.Fatalf("%s: %d segment tables with vectors; want the two labels and five target-set tables", city.name, len(sizes))
		}
		budget := int64(0)
		for k, size := range sizes {
			budget += size
			db, err := Open(dir, Config{Device: "ram", VectorCacheBytes: budget})
			if err != nil {
				t.Fatalf("%s: budget of the first %d tables: %v", city.name, k+1, err)
			}
			vc := db.Snapshot().VCache
			if vc.ResidentBytes != budget || vc.Materializations != uint64(k+1) || vc.Declined != uint64(len(sizes)-k-1) {
				t.Errorf("%s: a budget of %d bytes, the first %d tables' vectors: vcache = %+v; want exactly those tables resident",
					city.name, budget, k+1, *vc)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
