package ptldb

// BenchmarkVCache measures the resident vector cache against the segment
// read path on the same database directory — the check.sh smoke companion to
// the fuller `ptldb-bench -exp vcache` experiment (BENCH_vcache.json). Both
// handles run warm on the RAM device, so the delta is exactly the per-lookup
// work a cache hit skips: buffer-pool pinning, the payload copy and the
// varint decode.

import "testing"

func BenchmarkVCache(b *testing.B) {
	tt, dir := benchSetup(b)
	const pool = 4096
	src, dst, starts, _ := benchWorkload(tt, pool)

	// Budget 0 is the default cache; a negative budget means no cache.
	for _, tier := range []string{"vcache", "segments"} {
		var budget int64
		if tier == "segments" {
			budget = -1
		}
		db, err := Open(dir, Config{Device: "ram", VectorCacheBytes: budget})
		if err != nil {
			b.Fatal(err)
		}
		set := benchEnsureSet(b, db, tt, 0.01, 4)

		b.Run("warm/V2V-EA/"+tier, func(b *testing.B) {
			runQueries(b, db, func(i int) error {
				j := i % pool
				_, _, err := db.EarliestArrival(src[j], dst[j], starts[j])
				return err
			})
		})
		b.Run("warm/KNN-EA/"+tier, func(b *testing.B) {
			runQueries(b, db, func(i int) error {
				_, err := db.EAKNN(set, src[i%pool], starts[i%pool], 4)
				return err
			})
		})

		if vc := db.Snapshot().VCache; tier == "segments" && vc != nil {
			b.Fatalf("segments handle has a vector cache: %+v", vc)
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
