// Command ptldb-build preprocesses a transit network into a PTLDB database
// directory: TTL labels under the neighbor-degree vertex order, dummy
// augmentation and the lout/lin tables, plus optional kNN/one-to-many target
// sets.
//
// Usage:
//
//	ptldb-build -db DIR (-gtfs FEEDDIR | -city NAME [-scale F] [-seed N])
//	            [-targets 0.01:16,0.1:4] [-bucket 3600]
//
// -seed feeds the generator and the draw of the -targets sets.
// The -targets flag registers random target sets as density:kmax pairs, each
// added to the directory by ptldb.AddTargetSet after Create. The size line
// and -obs-out come from the directory opened after the last writer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"ptldb"
)

func main() {
	var (
		dbDir   = flag.String("db", "", "output database directory (required)")
		gtfsDir = flag.String("gtfs", "", "GTFS feed directory to load")
		city    = flag.String("city", "", "synthetic city profile name (see -list)")
		scale   = flag.Float64("scale", 0.05, "synthetic dataset scale")
		seed    = flag.Int64("seed", 1, "generator seed")
		targets = flag.String("targets", "", "comma-separated density:kmax target sets, e.g. 0.01:16")
		bucket  = flag.Int("bucket", 3600, "knn/otm bucket width in seconds")
		workers = flag.Int("workers", 0, "preprocessing parallelism (0 = GOMAXPROCS); output is identical for every value")
		obsOut  = flag.String("obs-out", "", "write the build's observability snapshot (JSON) to this file")
		list    = flag.Bool("list", false, "list synthetic city profiles and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println("profile            |V|      |E|        avg-degree")
		for _, p := range ptldb.Profiles() {
			fmt.Printf("%-18s %-8d %-10d %d\n", p.Name, p.Stops, p.Connections, p.AvgDegree())
		}
		return
	}
	if *dbDir == "" {
		fatal(fmt.Errorf("-db is required"))
	}

	var tt *ptldb.Network
	var err error
	switch {
	case *gtfsDir != "":
		var skipped int
		tt, skipped, err = ptldb.LoadGTFS(*gtfsDir)
		if err != nil {
			fatal(err)
		}
		if skipped > 0 {
			fmt.Fprintf(os.Stderr, "ptldb-build: skipped %d degenerate connections\n", skipped)
		}
	case *city != "":
		tt, err = ptldb.GenerateCity(*city, *scale, *seed)
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("one of -gtfs or -city is required"))
	}
	fmt.Fprintf(os.Stderr, "ptldb-build: network: %d stops, %d connections, %d trips, span %v-%v\n",
		tt.NumStops(), tt.NumConnections(), tt.NumTrips(), tt.MinTime(), tt.MaxTime())

	cfg := ptldb.Config{
		Device:        "ram",
		BucketSeconds: int32(*bucket),
		BuildWorkers:  *workers,
	}
	db, stats, err := ptldb.CreateWithStats(*dbDir, tt, cfg)
	if err == nil {
		err = db.Close()
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr,
		"ptldb-build: labels: %d tuples (%d/stop) + %d dummies; order %v, build %v, load %v\n",
		stats.LabelTuples, stats.TuplesPerStop, stats.DummyTuples,
		stats.OrderTime.Round(1e6), stats.LabelTime.Round(1e6), stats.LoadTime.Round(1e6))
	ls := stats.Labels
	fmt.Fprintf(os.Stderr,
		"ptldb-build: label build: %d searches, %d tentative tuples (%d cross-pruned at commit), %d cover checks searching %d hub runs\n",
		ls.Searches, ls.TentativeTuples, ls.CrossPruned, ls.CoverChecks, ls.RunsProbed)

	if *targets != "" {
		rng := rand.New(rand.NewSource(*seed))
		for _, spec := range strings.Split(*targets, ",") {
			parts := strings.SplitN(strings.TrimSpace(spec), ":", 2)
			if len(parts) != 2 {
				fatal(fmt.Errorf("bad -targets entry %q (want density:kmax)", spec))
			}
			d, err := strconv.ParseFloat(parts[0], 64)
			if err != nil || d <= 0 || d > 1 {
				fatal(fmt.Errorf("bad density in %q", spec))
			}
			kmax, err := strconv.Atoi(parts[1])
			if err != nil || kmax < 1 {
				fatal(fmt.Errorf("bad kmax in %q", spec))
			}
			count := int(d * float64(tt.NumStops()))
			if count < 1 {
				count = 1
			}
			perm := rng.Perm(tt.NumStops())
			set := make([]ptldb.StopID, count)
			for i := range set {
				set[i] = ptldb.StopID(perm[i])
			}
			name := fmt.Sprintf("d%d_k%d", int(d*10000), kmax)
			if err := ptldb.AddTargetSet(*dbDir, "base", name, set, kmax, cfg); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "ptldb-build: target set %s: %d targets, kmax %d\n", name, count, kmax)
		}
	}

	if db, err = ptldb.Open(*dbDir, cfg); err != nil {
		fatal(err)
	}
	defer db.Close()
	st, err := db.Stats()
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "ptldb-build: database %s: %.1f MiB\n", *dbDir, float64(st.SizeOnDisk)/(1<<20))

	if *obsOut != "" {
		// The registry's counters, plus the preprocessing breakdown under
		// "build" (phase times, tuple counts, label-build work counters).
		blob, err := json.MarshalIndent(struct {
			ptldb.Snapshot
			Build ptldb.PreprocessStats `json:"build"`
		}{db.Snapshot(), stats}, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*obsOut, append(blob, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ptldb-build:", err)
	os.Exit(1)
}
