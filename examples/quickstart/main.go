// Quickstart: build a PTLDB database for a small synthetic city and run one
// query of every kind the paper defines (EA/LD/SD vertex-to-vertex, EA/LD
// kNN, EA/LD one-to-many).
package main

import (
	"fmt"
	"log"
	"os"

	"ptldb"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("quickstart: ")

	// 1. A synthetic network modelled on the paper's Austin dataset at 2%
	// scale (use ptldb.LoadGTFS to ingest a real feed instead).
	tt, err := ptldb.GenerateCity("Austin", 0.02, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: %d stops, %d connections, service %v-%v\n",
		tt.NumStops(), tt.NumConnections(), tt.MinTime(), tt.MaxTime())

	// 2. Preprocess into a database directory: TTL labels -> lout/lin.
	dir, err := os.MkdirTemp("", "ptldb-quickstart")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	cfg := ptldb.Config{Device: "ssd"}
	db, err := ptldb.Create(dir, tt, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Vertex-to-vertex queries (paper Code 1).
	s, g := ptldb.StopID(0), ptldb.StopID(tt.NumStops()/2)
	morning := ptldb.Time(8 * 3600)
	if arr, ok, err := db.EarliestArrival(s, g, morning); err != nil {
		log.Fatal(err)
	} else if ok {
		fmt.Printf("EA(%d, %d, 08:00) = %v\n", s, g, arr)
		if dep, ok, _ := db.LatestDeparture(s, g, arr); ok {
			fmt.Printf("LD(%d, %d, %v) = %v\n", s, g, arr, dep)
		}
		if dur, ok, _ := db.ShortestDuration(s, g, morning, arr+3600); ok {
			fmt.Printf("SD(%d, %d) = %v riding time\n", s, g, dur)
		}
	} else {
		fmt.Printf("no journey %d -> %d after 08:00\n", s, g)
	}

	// 4. Register a target set (stops near points of interest) and ask the
	// paper's new query types. A handle only reads: the writer takes the
	// directory, and a handle opened after it answers on the set.
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}
	pois := []ptldb.StopID{3, 7, 11, 19, 23}
	if err := ptldb.AddTargetSet(dir, "base", "poi", pois, 4, cfg); err != nil {
		log.Fatal(err)
	}
	if db, err = ptldb.Open(dir, cfg); err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	near, err := db.EAKNN("poi", s, morning, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("3 nearest POIs by arrival time:")
	for _, r := range near {
		fmt.Printf("  stop %d, arrive %v\n", r.Stop, r.When)
	}

	all, err := db.EAOTM("poi", s, morning)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("one-to-many: %d of %d POIs reachable after 08:00\n", len(all), len(pois))

	latest, err := db.LDKNN("poi", s, 11*3600, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("to reach a POI by 11:00, the two latest departures are:")
	for _, r := range latest {
		fmt.Printf("  leave at %v toward stop %d\n", r.When, r.Stop)
	}

	st, _ := db.Stats()
	pool := db.Snapshot().Pool
	fmt.Printf("database: %.1f MiB on disk, %d buffer-pool hits / %d misses\n",
		float64(st.SizeOnDisk)/(1<<20), pool.Hits, pool.Misses)
}
