package ptldb_test

// BenchmarkFusedExec measures the fused label-query pipeline against the
// general tuple-at-a-time executor on the same database directory. It is the
// only place the general (reference) executor is timed; everything else about
// performance is measured by benchmark/. Both handles run on the warm RAM
// device so the delta is pure executor CPU and allocation.
//
// The database, its target set and the workload are ptldb-bench's
// (internal/bench): one cached dataset, Austin at scale 0.02, with the
// density-0.01, kmax-4 target set, and queries drawn per the paper's
// protocol. Reported metrics: ns/op is wall-clock CPU; "sim-ms/op" adds the
// simulated storage-device time charged by the buffer pool.

import (
	"testing"
	"time"

	"ptldb"
	"ptldb/internal/bench"
)

func BenchmarkFusedExec(b *testing.B) {
	w, err := bench.NewWorkspace(bench.Config{Scale: 0.02, Cities: []string{"Austin"}})
	if err != nil {
		b.Fatal(err)
	}
	ds, err := w.Dataset("Austin")
	if err != nil {
		b.Fatal(err)
	}
	set, err := w.EnsureTargetSet(ds, 0.01, 4)
	if err != nil {
		b.Fatal(err)
	}
	const pool = 4096
	wl := w.NewWorkload(ds, pool)
	src, dst, starts, ends := wl.Sources, wl.Goals, wl.Starts, wl.Ends

	for _, path := range []string{"fused", "general"} {
		open := ptldb.Open
		if path == "general" {
			open = ptldb.OpenReference
		}
		db, err := open(ds.Dir, ptldb.Config{Device: "ram"})
		if err != nil {
			b.Fatal(err)
		}

		b.Run("V2V-EA/"+path, func(b *testing.B) {
			runQueries(b, db, func(i int) error {
				j := i % pool
				_, _, err := db.EarliestArrival(src[j], dst[j], starts[j])
				return err
			})
		})
		b.Run("V2V-SD/"+path, func(b *testing.B) {
			runQueries(b, db, func(i int) error {
				j := i % pool
				_, _, err := db.ShortestDuration(src[j], dst[j], starts[j], ends[j])
				return err
			})
		})
		b.Run("KNNNaive-EA/"+path, func(b *testing.B) {
			runQueries(b, db, func(i int) error {
				_, err := db.EAKNNNaive(set, src[i%pool], starts[i%pool], 4)
				return err
			})
		})
		b.Run("KNN-EA/"+path, func(b *testing.B) {
			runQueries(b, db, func(i int) error {
				_, err := db.EAKNN(set, src[i%pool], starts[i%pool], 4)
				return err
			})
		})
		b.Run("KNN-LD/"+path, func(b *testing.B) {
			runQueries(b, db, func(i int) error {
				_, err := db.LDKNN(set, src[i%pool], ends[i%pool], 4)
				return err
			})
		})
		b.Run("OTM-EA/"+path, func(b *testing.B) {
			runQueries(b, db, func(i int) error {
				_, err := db.EAOTM(set, src[i%pool], starts[i%pool])
				return err
			})
		})
		b.Run("OTM-LD/"+path, func(b *testing.B) {
			runQueries(b, db, func(i int) error {
				_, err := db.LDOTM(set, src[i%pool], ends[i%pool])
				return err
			})
		})

		// Sanity: the intended executor served this handle. hits may be 0
		// when -bench filters out every sub-benchmark of this path.
		if ex := db.Snapshot().Exec; path == "fused" && ex.GeneralRuns != 0 {
			b.Fatalf("fused handle ran the general executor %d times", ex.GeneralRuns)
		} else if path == "general" && ex.FusedRuns != 0 {
			b.Fatalf("general handle recorded %d fused executions", ex.FusedRuns)
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// runQueries benchmarks fn over the workload, reporting wall clock as ns/op
// and wall + simulated device time as sim-ms/op.
func runQueries(b *testing.B, db *ptldb.DB, fn func(i int) error) {
	b.Helper()
	b.ReportAllocs()
	if err := db.DropCaches(); err != nil {
		b.Fatal(err)
	}
	db.ResetIOClock()
	st0, err := db.Stats()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if err := fn(i); err != nil {
			b.Fatal(err)
		}
	}
	wall := time.Since(start)
	b.StopTimer()
	st1, err := db.Stats()
	if err != nil {
		b.Fatal(err)
	}
	sim := wall + (st1.SimulatedIO - st0.SimulatedIO)
	b.ReportMetric(float64(sim)/float64(b.N)/1e6, "sim-ms/op")
}
