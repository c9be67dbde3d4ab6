package ptldb

// One testing.B benchmark per table and figure of the paper's evaluation
// (Section 4). Each benchmark reproduces the corresponding experiment's
// query mix on a synthetic dataset; cmd/ptldb-bench runs the same
// experiments over all eleven datasets and renders the full tables.
//
// Reported metrics: ns/op is wall-clock CPU; "sim-ms/op" adds the simulated
// storage-device time charged by the buffer pool, which is what the paper's
// HDD/SSD comparisons are about.
//
// Environment knobs:
//
//	PTLDB_BENCH_SCALE  dataset scale relative to the paper (default 0.02)
//	PTLDB_BENCH_CITY   dataset profile (default Austin)

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"
)

var benchState struct {
	once  sync.Once
	err   error
	tt    *Network
	dir   string
	scale float64
	city  string
	pre   PreprocessStats
}

func benchSetup(b *testing.B) (*Network, string) {
	b.Helper()
	benchState.once.Do(func() {
		benchState.scale = 0.02
		if s := os.Getenv("PTLDB_BENCH_SCALE"); s != "" {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				benchState.err = fmt.Errorf("bad PTLDB_BENCH_SCALE: %w", err)
				return
			}
			benchState.scale = v
		}
		benchState.city = "Austin"
		if c := os.Getenv("PTLDB_BENCH_CITY"); c != "" {
			benchState.city = c
		}
		tt, err := GenerateCity(benchState.city, benchState.scale, 1)
		if err != nil {
			benchState.err = err
			return
		}
		// benchDatasetFormat versions the cached dataset directory: bump it
		// whenever the on-disk format changes (the segment header CRC in v2,
		// segment-only label tables in v3), or a stale cache would fail to
		// open or carry files the current build no longer writes.
		const benchDatasetFormat = 3
		dir := filepath.Join(os.TempDir(),
			fmt.Sprintf("ptldb-gobench-%s-%04d-f%d", benchState.city, int(benchState.scale*10000), benchDatasetFormat))
		if _, err := os.Stat(filepath.Join(dir, "catalog.json")); err != nil {
			db, pre, err := CreateWithStats(dir, tt, Config{Device: "ram"})
			if err != nil {
				benchState.err = err
				return
			}
			benchState.pre = pre
			db.Close()
		}
		benchState.tt, benchState.dir = tt, dir
	})
	if benchState.err != nil {
		b.Fatal(benchState.err)
	}
	return benchState.tt, benchState.dir
}

func benchOpen(b *testing.B, device string) *DB {
	b.Helper()
	_, dir := benchSetup(b)
	db, err := Open(dir, Config{Device: device})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
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

// benchEnsureSet materializes the target set for (density, kmax) once.
func benchEnsureSet(b *testing.B, db *DB, tt *Network, d float64, kmax int) string {
	b.Helper()
	name := fmt.Sprintf("d%d_k%d", int(d*10000), kmax)
	if _, ok := db.TargetSets()[name]; ok {
		return name
	}
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
	if err := db.AddTargetSet(name, targets, kmax); err != nil {
		b.Fatal(err)
	}
	return name
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

// BenchmarkTable7_TTLPreprocessing regenerates the dataset-statistics table:
// full preprocessing of the benchmark city (vertex order, TTL labels,
// augmentation, bulk load).
func BenchmarkTable7_TTLPreprocessing(b *testing.B) {
	tt, _ := benchSetup(b)
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		db, pre, err := CreateWithStats(dir, tt, Config{Device: "ram"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(pre.TuplesPerStop), "tuples/stop")
		db.Close()
		os.RemoveAll(dir)
	}
}

// BenchmarkFig2_V2V_HDD measures EA, LD and SD vertex-to-vertex queries on
// the simulated HDD (paper Figure 2).
func BenchmarkFig2_V2V_HDD(b *testing.B) {
	benchV2V(b, "hdd")
}

// BenchmarkFig7_V2V_SSD is the SSD counterpart (paper Figure 7).
func BenchmarkFig7_V2V_SSD(b *testing.B) {
	benchV2V(b, "ssd")
}

func benchV2V(b *testing.B, device string) {
	tt, _ := benchSetup(b)
	db := benchOpen(b, device)
	const pool = 4096
	src, dst, starts, ends := benchWorkload(tt, pool)
	b.Run("EA", func(b *testing.B) {
		runQueries(b, db, func(i int) error {
			j := i % pool
			_, _, err := db.EarliestArrival(src[j], dst[j], starts[j])
			return err
		})
	})
	b.Run("LD", func(b *testing.B) {
		runQueries(b, db, func(i int) error {
			j := i % pool
			_, _, err := db.LatestDeparture(src[j], dst[j], ends[j])
			return err
		})
	})
	b.Run("SD", func(b *testing.B) {
		runQueries(b, db, func(i int) error {
			j := i % pool
			_, _, err := db.ShortestDuration(src[j], dst[j], starts[j], ends[j])
			return err
		})
	})
}

// BenchmarkFig3_KNNNaiveVsOpt compares the naive Code 2 kNN query with the
// optimized Code 3/4 versions for D = 0.01 (paper Figure 3; the speedup is
// the ratio of the sub-benchmarks).
func BenchmarkFig3_KNNNaiveVsOpt(b *testing.B) {
	tt, _ := benchSetup(b)
	db := benchOpen(b, "hdd")
	const pool = 4096
	src, _, starts, ends := benchWorkload(tt, pool)
	for _, k := range []int{1, 4, 16} {
		kmax := 4
		if k > 4 {
			kmax = 16
		}
		set := benchEnsureSet(b, db, tt, 0.01, kmax)
		b.Run(fmt.Sprintf("EA/naive/k=%d", k), func(b *testing.B) {
			runQueries(b, db, func(i int) error {
				_, err := db.EAKNNNaive(set, src[i%pool], starts[i%pool], k)
				return err
			})
		})
		b.Run(fmt.Sprintf("EA/opt/k=%d", k), func(b *testing.B) {
			runQueries(b, db, func(i int) error {
				_, err := db.EAKNN(set, src[i%pool], starts[i%pool], k)
				return err
			})
		})
		b.Run(fmt.Sprintf("LD/naive/k=%d", k), func(b *testing.B) {
			runQueries(b, db, func(i int) error {
				_, err := db.LDKNNNaive(set, src[i%pool], ends[i%pool], k)
				return err
			})
		})
		b.Run(fmt.Sprintf("LD/opt/k=%d", k), func(b *testing.B) {
			runQueries(b, db, func(i int) error {
				_, err := db.LDKNN(set, src[i%pool], ends[i%pool], k)
				return err
			})
		})
	}
}

// BenchmarkFig4_KNN_HDD measures the optimized kNN queries for D = 0.01 and
// every k of the paper (Figure 4).
func BenchmarkFig4_KNN_HDD(b *testing.B) {
	benchKNN(b, "hdd")
}

// BenchmarkFig8_KNN_SSD is the SSD counterpart (Figure 8): the paper's
// finding is that kNN queries barely benefit from the faster device.
func BenchmarkFig8_KNN_SSD(b *testing.B) {
	benchKNN(b, "ssd")
}

func benchKNN(b *testing.B, device string) {
	tt, _ := benchSetup(b)
	db := benchOpen(b, device)
	const pool = 4096
	src, _, starts, ends := benchWorkload(tt, pool)
	for _, k := range []int{1, 2, 4, 8, 16} {
		kmax := 4
		if k > 4 {
			kmax = 16
		}
		set := benchEnsureSet(b, db, tt, 0.01, kmax)
		b.Run(fmt.Sprintf("EA/k=%d", k), func(b *testing.B) {
			runQueries(b, db, func(i int) error {
				_, err := db.EAKNN(set, src[i%pool], starts[i%pool], k)
				return err
			})
		})
		b.Run(fmt.Sprintf("LD/k=%d", k), func(b *testing.B) {
			runQueries(b, db, func(i int) error {
				_, err := db.LDKNN(set, src[i%pool], ends[i%pool], k)
				return err
			})
		})
	}
}

// BenchmarkFig5_KNNDensity measures kNN queries for k = 4 across the
// paper's target densities (Figure 5).
func BenchmarkFig5_KNNDensity(b *testing.B) {
	tt, _ := benchSetup(b)
	db := benchOpen(b, "hdd")
	const pool = 4096
	src, _, starts, ends := benchWorkload(tt, pool)
	for _, d := range []float64{0.001, 0.005, 0.01, 0.05, 0.1} {
		set := benchEnsureSet(b, db, tt, d, 4)
		b.Run(fmt.Sprintf("EA/D=%g", d), func(b *testing.B) {
			runQueries(b, db, func(i int) error {
				_, err := db.EAKNN(set, src[i%pool], starts[i%pool], 4)
				return err
			})
		})
		b.Run(fmt.Sprintf("LD/D=%g", d), func(b *testing.B) {
			runQueries(b, db, func(i int) error {
				_, err := db.LDKNN(set, src[i%pool], ends[i%pool], 4)
				return err
			})
		})
	}
}

// BenchmarkFig6_OTM measures the one-to-many queries across densities
// (Figure 6).
func BenchmarkFig6_OTM(b *testing.B) {
	tt, _ := benchSetup(b)
	db := benchOpen(b, "hdd")
	const pool = 4096
	src, _, starts, ends := benchWorkload(tt, pool)
	for _, d := range []float64{0.001, 0.01, 0.1} {
		set := benchEnsureSet(b, db, tt, d, 4)
		b.Run(fmt.Sprintf("EA/D=%g", d), func(b *testing.B) {
			runQueries(b, db, func(i int) error {
				_, err := db.EAOTM(set, src[i%pool], starts[i%pool])
				return err
			})
		})
		b.Run(fmt.Sprintf("LD/D=%g", d), func(b *testing.B) {
			runQueries(b, db, func(i int) error {
				_, err := db.LDOTM(set, src[i%pool], ends[i%pool])
				return err
			})
		})
	}
}

// BenchmarkAblation_BucketWidth sweeps the knn-table bucket width around the
// paper's one-hour choice (Section 3.2.1's tuning discussion).
func BenchmarkAblation_BucketWidth(b *testing.B) {
	tt, _ := benchSetup(b)
	for _, width := range []int32{900, 3600, 10800} {
		dir := filepath.Join(os.TempDir(),
			fmt.Sprintf("ptldb-gobench-bucket-%d-%04d", width, int(benchState.scale*10000)))
		if _, err := os.Stat(filepath.Join(dir, "catalog.json")); err != nil {
			db, err := Create(dir, tt, Config{Device: "ram", BucketSeconds: width})
			if err != nil {
				b.Fatal(err)
			}
			db.Close()
		}
		db, err := Open(dir, Config{Device: "hdd"})
		if err != nil {
			b.Fatal(err)
		}
		set := benchEnsureSet(b, db, tt, 0.01, 4)
		const pool = 4096
		src, _, starts, _ := benchWorkload(tt, pool)
		b.Run(fmt.Sprintf("EA/bucket=%ds", width), func(b *testing.B) {
			runQueries(b, db, func(i int) error {
				_, err := db.EAKNN(set, src[i%pool], starts[i%pool], 4)
				return err
			})
		})
		db.Close()
	}
}
