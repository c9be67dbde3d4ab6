package ptldb

// BenchmarkFusedExec measures the fused label-query pipeline against the
// general tuple-at-a-time executor on the same database directory. It is the
// only place the general (reference) executor is timed; everything else about
// performance is measured by benchmark/. Both handles run on the warm RAM
// device so the delta is pure executor CPU and allocation.

import "testing"

func BenchmarkFusedExec(b *testing.B) {
	tt, dir := benchSetup(b)
	const pool = 4096
	src, dst, starts, ends := benchWorkload(tt, pool)

	for _, path := range []string{"fused", "general"} {
		open := Open
		if path == "general" {
			open = OpenReference
		}
		db, err := open(dir, Config{Device: "ram"})
		if err != nil {
			b.Fatal(err)
		}
		set := benchEnsureSet(b, db, tt, 0.01, 4)

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
		if fused, general := db.Store().DB.FusedStats(); path == "fused" && general != 0 {
			b.Fatalf("fused handle ran the general executor %d times", general)
		} else if path == "general" && fused != 0 {
			b.Fatalf("general handle recorded %d fused executions", fused)
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
