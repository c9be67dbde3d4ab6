// Command ptldb-bench regenerates the tables and figures of the PTLDB
// paper's evaluation (Section 4: Table 7, Figs. 2-8, the storage report) on
// synthetic datasets, plus the four ablations of the paper's own design
// arguments (bucket, ordering, layout, engine). System performance of this
// implementation — latency, throughput, serving, tenants, cold I/O — is
// measured by the benchmark/ module instead (see benchmark/README.md).
//
// Usage:
//
//	ptldb-bench [-scale 0.05] [-queries 200] [-cities Austin,Berlin]
//	            [-exp table7,fig2|all] [-cache DIR] [-seed N] [-o FILE]
//
// At -scale 1.0 the datasets match the paper's published sizes; smaller
// scales preserve average degree and temporal structure. Built databases are
// cached in -cache and reused across runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"ptldb/internal/bench"
	"ptldb/internal/obs"
)

func main() {
	var (
		scale   = flag.Float64("scale", 0.05, "dataset scale relative to the paper (0 < scale <= 1)")
		queries = flag.Int("queries", 200, "queries per experiment (paper: 1000)")
		cities  = flag.String("cities", "", "comma-separated dataset names (default: all 11)")
		exps    = flag.String("exp", "all", "comma-separated experiment ids or 'all' (paper Section 4 + four ablations; system performance: benchmark/): "+strings.Join(bench.ExperimentIDs, ","))
		cache   = flag.String("cache", "", "database cache directory (default: $TMPDIR/ptldb-bench-cache)")
		seed    = flag.Int64("seed", 1, "workload and generator seed")
		workers = flag.Int("build-workers", 0, "preprocessing parallelism for database builds (0 = GOMAXPROCS)")
		vcBytes = flag.Int64("vcache-bytes", 0, "vector-cache budget in bytes (0 = default, negative = no cache)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file at exit")
		out     = flag.String("o", "", "write the report to a file instead of stdout")
		obsOut  = flag.String("obs-out", "", "write per-code query observability totals (JSON) to this file")
		quiet   = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	cfg := bench.Config{
		Scale:        *scale,
		Queries:      *queries,
		Seed:         *seed,
		CacheDir:     *cache,
		BuildWorkers: *workers,
	}
	cfg.VCacheBytes = *vcBytes
	var agg *obs.Aggregator
	if *obsOut != "" {
		agg = obs.NewAggregator()
		cfg.TraceHook = agg.Observe
	}
	if *cities != "" {
		for _, c := range strings.Split(*cities, ",") {
			cfg.Cities = append(cfg.Cities, strings.TrimSpace(c))
		}
	}
	w, err := bench.NewWorkspace(cfg)
	if err != nil {
		fatal(err)
	}
	if !*quiet {
		w.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
		}
	}

	ids := bench.ExperimentIDs
	if *exps != "all" {
		ids = nil
		for _, e := range strings.Split(*exps, ",") {
			ids = append(ids, strings.TrimSpace(e))
		}
	}

	var sink io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		sink = f
	}

	if _, err := fmt.Fprintf(sink, "# PTLDB evaluation — scale %.3g, %d queries/experiment, seed %d\n\n",
		w.Config().Scale, w.Config().Queries, w.Config().Seed); err != nil {
		fatal(err)
	}
	start := time.Now()
	for _, id := range ids {
		t0 := time.Now()
		tbl, err := w.Run(id)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", id, err))
		}
		if err := tbl.Render(sink); err != nil {
			fatal(err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "# %s done in %v\n", id, time.Since(t0).Round(time.Millisecond))
		}
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "# total %v\n", time.Since(start).Round(time.Millisecond))
	}
	if agg != nil {
		blob, err := json.MarshalIndent(agg.Totals(), "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*obsOut, append(blob, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ptldb-bench:", err)
	os.Exit(1)
}
