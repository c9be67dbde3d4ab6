package ptldb

// layout_test.go pins what a cold condensed query costs in device reads. The
// condensed tables are keyed, hence stored, bucket-first and probed in key
// order, so the rows one query needs are one forward sweep of the file: at
// most one seek, every page read once, and for an LD query — one bucket of
// every hub in the label — no more pages than that bucket's run of rows
// covers. The page set each query should read is worked out here from the
// label and the segment directory, independently of the executor; an EA kNN
// or one-to-many stops its sweep early and reads a prefix of that set.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"ptldb/internal/core"
	"ptldb/internal/csa"
	"ptldb/internal/sqldb/storage"
)

// condensedFile is the directory of one condensed table's segment: each row's
// key and the data-region byte range of its payload.
type condensedFile struct {
	seg  *storage.Segment // its in-memory directory outlives the closed file
	offs []int64          // NumRows()+1 payload offsets
}

func openCondensedFile(t *testing.T, dir, table string) condensedFile {
	t.Helper()
	var clock storage.Clock
	f, err := storage.OpenPagedFile(filepath.Join(dir, table+".seg"), storage.RAM, &clock)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pool := storage.NewPool(8)
	pool.Register(f)
	seg, err := storage.OpenSegment(f, pool)
	if err != nil {
		t.Fatal(err)
	}
	cf := condensedFile{seg: seg, offs: make([]int64, seg.NumRows()+1)}
	for i := 0; i < seg.NumRows(); i++ {
		cf.offs[i+1] = cf.offs[i] + int64(seg.RowLen(i))
	}
	return cf
}

// pages returns the distinct data pages holding the rows stored under keys;
// absent keys hold none.
func (cf condensedFile) pages(keys []storage.Key) int {
	seen := map[int64]bool{}
	for _, k := range keys {
		i, ok := storage.FindFrom(cf.seg.Keys(), 0, k)
		if !ok || cf.offs[i] == cf.offs[i+1] {
			continue
		}
		for p := cf.offs[i] / storage.PageSize; p <= (cf.offs[i+1]-1)/storage.PageSize; p++ {
			seen[p] = true
		}
	}
	return len(seen)
}

// bucketBytes returns the payload bytes of the contiguous run of rows keyed
// with the given bucket.
func (cf condensedFile) bucketBytes(bucket int64) int64 {
	keys := cf.seg.Keys()
	lo := sort.Search(len(keys), func(i int) bool { return keys[i][0] >= bucket })
	hi := sort.Search(len(keys), func(i int) bool { return keys[i][0] > bucket })
	return cf.offs[hi] - cf.offs[lo]
}

func TestCondensedLayoutColdReads(t *testing.T) {
	const (
		kmax    = 4
		queries = 50
		width   = core.DefaultBucketSeconds
	)
	tt, err := GenerateCity("Austin", 0.15, 11)
	if err != nil {
		t.Fatal(err)
	}
	n := tt.NumStops()
	if n < 100 || tt.MinTime() < 0 {
		t.Fatalf("city has %d stops from time %d; the test wants >= 100 and non-negative times", n, tt.MinTime())
	}
	rng := rand.New(rand.NewSource(11))
	var targets []StopID
	inSet := map[StopID]bool{}
	for _, v := range rng.Perm(n)[:n/10] {
		targets = append(targets, StopID(v))
		inSet[StopID(v)] = true
	}
	dir := t.TempDir()
	// A one-byte vector cache declines every table, so all reads go through
	// the buffer pool (small, so dropping it per query is cheap; no query
	// comes near filling it) to the simulated disk.
	db, err := Create(dir, tt, Config{Device: "hdd", VectorCacheBytes: 1, PoolPages: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.AddTargetSet("poi", targets, kmax); err != nil {
		t.Fatal(err)
	}
	sdb := db.Store().DB
	lout, ok := sdb.Table("lout")
	if !ok {
		t.Fatal("no lout table")
	}

	kinds := []struct {
		table, bucketCol string
		ea, knn          bool
		run              func(q StopID, when Time) ([]Result, error)
	}{
		{"knn_ea_poi", "dephour", true, true, func(q StopID, when Time) ([]Result, error) { return db.EAKNN("poi", q, when, kmax) }},
		{"knn_ld_poi", "arrhour", false, true, func(q StopID, when Time) ([]Result, error) { return db.LDKNN("poi", q, when, kmax) }},
		{"otm_ea_poi", "dephour", true, false, func(q StopID, when Time) ([]Result, error) { return db.EAOTM("poi", q, when) }},
		{"otm_ld_poi", "arrhour", false, false, func(q StopID, when Time) ([]Result, error) { return db.LDOTM("poi", q, when) }},
	}
	span := int64(tt.MaxTime() - tt.MinTime())
	for _, kind := range kinds {
		// The table declares its key bucket-first, and its directory — the
		// order of its payloads in the file — ascends in exactly the
		// (bucket, hub) pairs of its rows.
		tbl, ok := sdb.Table(kind.table)
		if !ok {
			t.Fatalf("no table %s", kind.table)
		}
		if pk := tbl.Def().PK; len(pk) != 2 || pk[0] != kind.bucketCol || pk[1] != "hub" {
			t.Fatalf("%s is keyed %v, want (%s, hub)", kind.table, pk, kind.bucketCol)
		}
		cf := openCondensedFile(t, dir, kind.table)
		var inRows []storage.Key
		rows, err := sdb.Query(fmt.Sprintf("SELECT %s, hub FROM %s", kind.bucketCol, kind.table))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows.Rows {
			inRows = append(inRows, storage.Key{r[0].I, r[1].I})
		}
		if !slices.Equal(inRows, cf.seg.Keys()) || !slices.IsSortedFunc(inRows, func(a, b storage.Key) int { return slices.Compare(a[:], b[:]) }) {
			t.Fatalf("%s: the segment directory is not its rows' ascending (bucket, hub) pairs", kind.table)
		}

		atMostOneSeek := 0
		for i := 0; i < queries; i++ {
			q := StopID(rng.Intn(n))
			for inSet[q] { // the timetable oracle judges only stops outside the set
				q = StopID(rng.Intn(n))
			}
			when := tt.MinTime() + Time(rng.Int63n(span+1))
			desc := fmt.Sprintf("%s q=%d t=%d", kind.table, q, when)

			if err := db.DropCaches(); err != nil {
				t.Fatal(err)
			}
			// Reading the label first leaves its pages in the pool, so every
			// device read of the query itself is a read of the condensed file.
			label, found, err := lout.LookupPK([]int64{int64(q)})
			if err != nil || !found {
				t.Fatalf("%s: label: %v %v", desc, found, err)
			}
			var probes []storage.Key
			for j, hub := range label[1].A {
				switch td, ta := label[2].A[j], label[3].A[j]; {
				case !kind.ea:
					probes = append(probes, storage.Key{int64(when) / width, hub})
				case td >= int64(when):
					probes = append(probes, storage.Key{ta / width, hub})
				}
			}
			before := db.Snapshot().Pool
			got, err := kind.run(q, when)
			if err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			after := db.Snapshot().Pool
			pages, seeks := after.Misses-before.Misses, after.RandReads-before.RandReads
			if reads := seeks + after.SeqReads - before.SeqReads; reads != pages {
				t.Fatalf("%s: %d device reads for %d pool misses", desc, reads, pages)
			}
			// Exactly the pages its rows lie on, each once — for an EA query,
			// which stops its sweep once its answer is settled, at most those.
			switch want := cf.pages(probes); {
			case kind.ea && int(pages) > want:
				t.Errorf("%s: read %d pages of the condensed file, its full probe set lies on %d", desc, pages, want)
			case !kind.ea && int(pages) != want:
				t.Errorf("%s: read %d pages of the condensed file, its rows lie on %d", desc, pages, want)
			}
			if seeks <= 1 {
				atMostOneSeek++
			}
			if !kind.ea {
				run := cf.bucketBytes(int64(when) / width)
				if limit := (run+storage.PageSize-1)/storage.PageSize + 1; int64(pages) > limit {
					t.Errorf("%s: read %d pages; its bucket's run is %d bytes, at most %d pages", desc, pages, run, limit)
				}
			}

			// The oracle's backward scan re-sorts the timetable on every
			// call, so it judges one LD query in ten.
			if !kind.ea && i%10 != 0 {
				continue
			}
			k := len(targets)
			if kind.knn {
				k = kmax
			}
			var want []csa.Neighbor
			if kind.ea {
				want = csa.EarliestArrivalKNN(tt, q, targets, when, k)
			} else {
				want = csa.LatestDepartureKNN(tt, q, targets, when, k)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d results, oracle has %d", desc, len(got), len(want))
			}
			for j := range got {
				if got[j].When != want[j].When {
					t.Fatalf("%s: result %d is %v, oracle has %v", desc, j, got[j], want[j])
				}
			}
		}
		if atMostOneSeek*100 < 95*queries {
			t.Errorf("%s: %d of %d cold queries stayed within one seek on the condensed file, want >= 95 %%",
				kind.table, atMostOneSeek, queries)
		}
	}
}
