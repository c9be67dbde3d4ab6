package ptldb

// Shared fixtures of BenchmarkFusedExec (fused_bench_test.go), the one
// testing.B benchmark of this package: a cached benchmark database with one
// target set, a query workload drawn per the paper's protocol, and a timing
// loop. The paper's
// figures come from cmd/ptldb-bench, system performance from benchmark/.
//
// Reported metrics: ns/op is wall-clock CPU; "sim-ms/op" adds the simulated
// storage-device time charged by the buffer pool.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ptldb/internal/sqldb"
)

// The benchmark dataset: one profile at one scale relative to the paper, and
// its target set of density 0.01 and kmax 4.
const (
	benchCity  = "Austin"
	benchScale = 0.02
	benchSet   = "d100_k4"
)

var benchState struct {
	once sync.Once
	err  error
	tt   *Network
	dir  string
}

func benchSetup(b *testing.B) (*Network, string) {
	b.Helper()
	benchState.once.Do(func() {
		tt, err := GenerateCity(benchCity, benchScale, 1)
		if err != nil {
			benchState.err = err
			return
		}
		// benchDatasetFormat versions the cached dataset directory: bump it
		// whenever the on-disk format changes (the segment header CRC in v2,
		// segment-only label tables in v3, every table a segment in v4) or a
		// table gains a declared property (run_order in the catalog in v5,
		// target_ids in v6, floor in v7, the target count in v8) or a table is
		// renamed (one knn_naive table per target set in v9) or the tables move
		// into one image file (v10) whose segment headers hold the table
		// definitions (v11), or the dataset gains a table (its target set, v12),
		// or the segments store the label hubs as runs (segment version 4,
		// v13), or a stale cache would fail to open or lack a table the
		// benchmark queries.
		const benchDatasetFormat = 13
		dir := filepath.Join(os.TempDir(),
			fmt.Sprintf("ptldb-gobench-%s-%04d-f%d", benchCity, int(benchScale*10000), benchDatasetFormat))
		if _, err := os.Stat(filepath.Join(dir, sqldb.ImageName)); err != nil {
			db, err := Create(dir, tt, Config{Device: "ram"})
			if err == nil {
				err = db.Close()
			}
			if err == nil {
				err = AddTargetSet(dir, "base", benchSet, benchTargets(tt, 0.01, 4), 4, Config{Device: "ram"})
			}
			if err != nil {
				benchState.err = err
				return
			}
		}
		benchState.tt, benchState.dir = tt, dir
	})
	if benchState.err != nil {
		b.Fatal(benchState.err)
	}
	return benchState.tt, benchState.dir
}

// benchWorkload draws query inputs per the paper's protocol (sources and
// goals uniform; EA/SD starts in the first quarter of the time range, LD/SD
// ends in the fourth quarter).
func benchWorkload(tt *Network, n int) (src, dst []StopID, starts, ends []Time) {
	rng := rand.New(rand.NewSource(1234))
	span, min := tt.Span(), tt.MinTime()
	src = make([]StopID, n)
	dst = make([]StopID, n)
	starts = make([]Time, n)
	ends = make([]Time, n)
	for i := 0; i < n; i++ {
		src[i] = StopID(rng.Intn(tt.NumStops()))
		dst[i] = StopID(rng.Intn(tt.NumStops()))
		if dst[i] == src[i] {
			dst[i] = (dst[i] + 1) % StopID(tt.NumStops())
		}
		starts[i] = min + Time(rng.Int63n(int64(span)/4))
		ends[i] = min + span - Time(rng.Int63n(int64(span)/4))
	}
	return
}

// benchTargets draws the target stops of a set of density d and the given
// kmax.
func benchTargets(tt *Network, d float64, kmax int) []StopID {
	n := tt.NumStops()
	count := int(d * float64(n))
	if count < 1 {
		count = 1
	}
	rng := rand.New(rand.NewSource(int64(count)<<20 ^ int64(kmax) ^ 1))
	perm := rng.Perm(n)
	targets := make([]StopID, count)
	for i := range targets {
		targets[i] = StopID(perm[i])
	}
	return targets
}

// runQueries benchmarks fn over the workload, reporting wall clock as ns/op
// and wall + simulated device time as sim-ms/op.
func runQueries(b *testing.B, db *DB, fn func(i int) error) {
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
