package ptldb

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ptldb/internal/sqldb"
	"ptldb/internal/sqldb/exec"
	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/timetable"
)

// vcacheDifferential builds one database from tt, target set included, and
// runs the full seeded query battery two ways over the same directory: with
// the resident vector cache (the default budget, on a handle opened after the
// target set was written, so that it admits the set's tables) and without one (a negative budget — every read
// served from the segments). The answer lists must be identical, and the
// cache/segment counters prove which tier actually served each handle.
func vcacheDifferential(t *testing.T, tt *Network, targets []StopID) {
	t.Helper()
	dir := t.TempDir()

	vdb := createWithTargetSet(t, dir, tt, targets)
	vectored := fusedBattery(t, vdb, tt)
	if vc := vdb.Snapshot().VCache; vc == nil {
		t.Error("default handle has no vector cache metrics")
	} else if vc.Hits == 0 || vc.Declined != 0 {
		t.Errorf("vcache handle: %d hits, %d tables declined; want every label table served from resident vectors", vc.Hits, vc.Declined)
	}
	if err := vdb.Close(); err != nil {
		t.Fatal(err)
	}

	sdb, err := Open(dir, Config{Device: "ram", VectorCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	segmented := fusedBattery(t, sdb, tt)
	snap := sdb.Snapshot()
	if snap.VCache != nil {
		t.Errorf("negative-budget handle has a vector cache: %+v", snap.VCache)
	}
	if snap.Segment.Hits == 0 {
		t.Error("negative-budget handle served no rows from segments")
	}

	if len(vectored) != len(segmented) {
		t.Fatalf("battery sizes differ: %d vs %d", len(vectored), len(segmented))
	}
	for i := range vectored {
		if vectored[i] != segmented[i] {
			t.Errorf("answer %d differs:\n  vcache:   %s\n  segments: %s", i, vectored[i], segmented[i])
		}
	}
}

// createWithTargetSet creates the database of tt in dir with the target set
// "poi" and returns the directory reopened with the default vector cache.
func createWithTargetSet(t *testing.T, dir string, tt *Network, targets []StopID) *DB {
	t.Helper()
	db, err := Create(dir, tt, Config{Device: "ram"})
	if err != nil {
		t.Fatal(err)
	}
	err = db.AddTargetSet("poi", targets, 4)
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir, Config{Device: "ram"}); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestVCacheMatchesSegmentsPaperExample runs the battery on the paper's
// Figure 1 network, where every answer is checkable by hand.
func TestVCacheMatchesSegmentsPaperExample(t *testing.T) {
	tt := timetable.PaperExample()
	vcacheDifferential(t, tt, []StopID{4, 6})
}

// TestVCacheMatchesSegmentsSyntheticCity runs the battery on a synthetic city
// large enough that label runs span multiple segment pages and several
// tables compete for cache residency.
func TestVCacheMatchesSegmentsSyntheticCity(t *testing.T) {
	tt, err := GenerateCity("Austin", 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	n := tt.NumStops()
	targets := []StopID{StopID(1 % n), StopID(2 % n), StopID(5 % n), StopID(n - 1)}
	vcacheDifferential(t, tt, targets)
}

// TestVCacheConcurrentPartialAdmission reopens a database with a budget just
// below the working set, so the tables that open first are admitted and at
// least one later table is declined, then runs concurrent queries against it
// under -race. Answers must match the single-threaded reference whichever
// tier (resident vectors, segment, or a mid-materialization fallback) serves
// each call; nothing is ever evicted, every admitted table materializes at
// most once, and the declined tables are served from their segments.
func TestVCacheConcurrentPartialAdmission(t *testing.T) {
	tt, err := GenerateCity("Austin", 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	n := tt.NumStops()
	db := createWithTargetSet(t, dir, tt, []StopID{StopID(1 % n), StopID(2 % n), StopID(5 % n), StopID(n - 1)})

	// Reference answers, computed single-threaded with an unconstrained
	// cache; the same pass warms every table so ResidentBytes below is the
	// true working set.
	type q struct {
		s, g StopID
		t    Time
		k    int
	}
	queries := make([]q, 48)
	wantArr := make([]Time, len(queries))
	wantOK := make([]bool, len(queries))
	wantKNN := make([][]Result, len(queries))
	for i := range queries {
		queries[i] = q{
			s: StopID(i % n),
			g: StopID((i * 7) % n),
			t: tt.MinTime() + Time(i)*60,
			k: 1 + i%4,
		}
		wantArr[i], wantOK[i], err = db.EarliestArrival(queries[i].s, queries[i].g, queries[i].t)
		if err != nil {
			t.Fatal(err)
		}
		wantKNN[i], err = db.EAKNN("poi", queries[i].s, queries[i].t, queries[i].k)
		if err != nil {
			t.Fatal(err)
		}
	}
	working := db.Snapshot().VCache.ResidentBytes
	if working <= 0 {
		t.Fatalf("ResidentBytes = %d after warm pass, want > 0", working)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// A budget a hair under the working set: every table fits alone, the
	// full set does not, so the tables that open last are declined.
	budget := working - working/16
	churn, err := Open(dir, Config{Device: "ram", VectorCacheBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer churn.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for round := 0; round < 12; round++ {
				i := (worker*13 + round*29) % len(queries)
				arr, ok, err := churn.EarliestArrival(queries[i].s, queries[i].g, queries[i].t)
				if err != nil {
					errs <- err
					return
				}
				if arr != wantArr[i] || ok != wantOK[i] {
					t.Errorf("worker %d: EA query %d = %d,%v; want %d,%v", worker, i, arr, ok, wantArr[i], wantOK[i])
				}
				res, err := churn.EAKNN("poi", queries[i].s, queries[i].t, queries[i].k)
				if err != nil {
					errs <- err
					return
				}
				if len(res) != len(wantKNN[i]) {
					t.Errorf("worker %d: EAKNN query %d returned %d results, want %d", worker, i, len(res), len(wantKNN[i]))
					continue
				}
				for j := range res {
					if res[j] != wantKNN[i][j] {
						t.Errorf("worker %d: EAKNN query %d result %d = %v, want %v", worker, i, j, res[j], wantKNN[i][j])
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	vc := churn.Snapshot().VCache
	if vc == nil {
		t.Fatal("churn handle has no vector cache metrics")
	}
	intTables := 0
	for _, name := range churn.db.Tables() {
		tbl, _ := churn.db.Table(name)
		ints := true
		for _, c := range tbl.Def().Columns {
			ints = ints && (c.Type == sqltypes.Int64 || c.Type == sqltypes.IntArray)
		}
		if ints {
			intTables++
		}
	}
	if vc.Evictions != 0 {
		t.Errorf("%d evictions; an admitted table keeps its share", vc.Evictions)
	}
	if vc.Declined == 0 {
		t.Error("a budget under the working set declined no table")
	}
	if vc.Materializations > uint64(intTables) {
		t.Errorf("%d materializations of %d all-integer tables; an admitted table materializes once", vc.Materializations, intTables)
	}
	if vc.Hits == 0 {
		t.Error("the under-budget handle never served from resident vectors")
	}
	if snap := churn.Snapshot(); snap.Segment.Hits == 0 {
		t.Error("the under-budget handle never served a declined table from its segment")
	}
	if vc.ResidentBytes > budget {
		t.Errorf("ResidentBytes %d exceeds the %d budget", vc.ResidentBytes, budget)
	}
}

// TestCursorLookupsMatchAcrossTiers: a scratch carries the position of its
// last lookup from one table into the next, and the search that starts there
// must answer as if it had started nowhere. One scratch per handle — resident
// vectors, segments only — alternates between a one-word-key table (lout) and
// a two-word-key one (a condensed table) over probe sequences that ascend,
// descend, repeat and jump, hit and miss below, between and above, with the
// carried position now and then replaced by garbage. Every lookup on either
// tier returns exactly the row a full scan stored under that key, or nothing.
func TestCursorLookupsMatchAcrossTiers(t *testing.T) {
	tt, err := GenerateCity("Austin", 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	db, err := Create(dir, tt, Config{Device: "ram"})
	if err != nil {
		t.Fatal(err)
	}
	n := tt.NumStops()
	if err := db.AddTargetSet("poi", []StopID{StopID(1 % n), StopID(2 % n), StopID(5 % n), StopID(n - 1)}, 4); err != nil {
		db.Close()
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	vdb, err := Open(dir, Config{Device: "ram"})
	if err != nil {
		t.Fatal(err)
	}
	defer vdb.Close()
	sdb, err := Open(dir, Config{Device: "ram", VectorCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()

	type stored struct {
		keys [][]int64
		rows map[[2]int64]sqltypes.Row
		tier [2]*sqldb.Table // vectors, segments
	}
	word2 := func(key []int64) (k [2]int64) {
		copy(k[:], key)
		return k
	}
	var tables []*stored
	for _, name := range []string{"lout", "knn_ea_poi"} {
		st := &stored{rows: map[[2]int64]sqltypes.Row{}}
		for i, h := range []*DB{vdb, sdb} {
			tbl, ok := h.db.Table(name)
			if !ok {
				t.Fatalf("no table %s", name)
			}
			st.tier[i] = tbl
		}
		pk := st.tier[1].PKCols()
		err := st.tier[1].Scan(func(row sqltypes.Row) error {
			key := make([]int64, len(pk))
			for i, ci := range pk {
				key[i] = row[ci].I
			}
			st.keys, st.rows[word2(key)] = append(st.keys, key), row
			return nil
		})
		if err != nil || len(st.keys) < 8 {
			t.Fatalf("%s: scanned %d rows, %v", name, len(st.keys), err)
		}
		tables = append(tables, st)
	}
	if len(tables[0].keys[0]) != 1 || len(tables[1].keys[0]) != 2 {
		t.Fatalf("want a one-word and a two-word key, got %v and %v", tables[0].keys[0], tables[1].keys[0])
	}

	rng := rand.New(rand.NewSource(47))
	var scratch [2]exec.RowScratch
	garbage := []int{-1, math.MinInt, math.MaxInt, 1 << 40, 0}
	hits, misses := 0, 0
	for round := 0; round < 300; round++ {
		stride := []int{1, 2, -1, -3, 0}[round%5]
		at := [2]int{rng.Intn(len(tables[0].keys)), rng.Intn(len(tables[1].keys))}
		for step := 0; step < 40; step++ {
			ti := step % 2
			if rng.Intn(5) == 0 {
				ti = rng.Intn(2) // the same table twice in a row, too
			}
			st := tables[ti]
			at[ti] = min(max(at[ti]+stride*rng.Intn(3), 0), len(st.keys)-1)
			if stride == 0 && rng.Intn(4) == 0 {
				at[ti] = rng.Intn(len(st.keys))
			}
			key := slices.Clone(st.keys[at[ti]])
			switch rng.Intn(6) { // absent: beside the row, below the first, above the last
			case 0:
				key[len(key)-1] += int64(rng.Intn(3)) - 1
			case 1:
				key[0] = st.keys[0][0] - 1 - int64(rng.Intn(3))
			case 2:
				key[0] = st.keys[len(st.keys)-1][0] + 1 + int64(rng.Intn(3))
			}
			want, present := st.rows[word2(key)]
			if rng.Intn(6) == 0 {
				g := garbage[rng.Intn(len(garbage))]
				scratch[0].Pos, scratch[1].Pos = g, g
			}
			for tier, tbl := range st.tier {
				s := &scratch[tier]
				s.Arena = s.Arena[:0]
				got, ok, err := tbl.LookupPKScratch(key, s)
				if err != nil || ok != present {
					t.Fatalf("round %d step %d tier %d: lookup %v from position %d: found %v (%v), stored %v",
						round, step, tier, key, s.Pos, ok, err, present)
				}
				if !ok {
					continue
				}
				if len(got) != len(want) {
					t.Fatalf("round %d step %d tier %d: key %v: %d columns, want %d", round, step, tier, key, len(got), len(want))
				}
				for ci := range want {
					if got[ci].T != want[ci].T || got[ci].I != want[ci].I || !slices.Equal(got[ci].A, want[ci].A) {
						t.Fatalf("round %d step %d tier %d: key %v column %d: got %v, stored %v", round, step, tier, key, ci, got[ci], want[ci])
					}
				}
			}
			if present {
				hits++
			} else {
				misses++
			}
		}
	}
	if hits < 1000 || misses < 1000 {
		t.Fatalf("%d hits and %d misses: the sequences do not exercise both", hits, misses)
	}
	if vc := vdb.Snapshot().VCache; vc == nil || vc.Hits == 0 {
		t.Error("the vcache handle served no row from resident vectors")
	}
	if sdb.Snapshot().Segment.Hits == 0 {
		t.Error("the negative-budget handle served no row from segments")
	}
}
