// Poifinder: the paper's EA-kNN motivating scenario (Section 3.2) — "a
// tourist deciding to visit the nearest point of interest using public
// transport", and the LD-kNN twin — "how long may breakfast last before
// heading to one of the preferred destinations by 11:00".
//
// It also contrasts the naive Code 2 query with the optimized Code 3 query
// on the same inputs, the comparison behind the paper's Figure 3.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"ptldb"
	"ptldb/internal/gtfs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("poifinder: ")

	tt, err := ptldb.GenerateCity("Budapest", 0.02, 11)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "ptldb-poi")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	cfg := ptldb.Config{Device: "hdd"}
	db, err := ptldb.Create(dir, tt, cfg)
	if err == nil {
		err = db.Close()
	}
	if err != nil {
		log.Fatal(err)
	}

	// "Museums": 1% of stops, as in the paper's D = 0.01 experiments.
	rng := rand.New(rand.NewSource(5))
	n := tt.NumStops()
	var museums []ptldb.StopID
	for _, idx := range rng.Perm(n)[:n/100+1] {
		museums = append(museums, ptldb.StopID(idx))
	}
	if err := ptldb.AddTargetSet(dir, "base", "museums", museums, 16, cfg); err != nil {
		log.Fatal(err)
	}
	if db, err = ptldb.Open(dir, cfg); err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	fmt.Printf("%d museum stops registered among %d stops\n", len(museums), n)

	hotel := ptldb.StopID(rng.Intn(n))
	fmt.Printf("hotel at stop %d (%s)\n", hotel, tt.Stop(hotel).Name)

	// Morning: which museums do we reach first after 09:00?
	after := ptldb.Time(9 * 3600)
	got, err := db.EAKNN("museums", hotel, after, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("leaving after 09:00, the four earliest-reachable museums:")
	for i, r := range got {
		fmt.Printf("  %d. stop %-5d arrive %s\n", i+1, r.Stop, gtfs.FormatTime(r.When))
	}

	// Breakfast planning: to be at some museum by 11:00, when must we leave?
	deadline := ptldb.Time(11 * 3600)
	latest, err := db.LDKNN("museums", hotel, deadline, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("to reach a museum by 11:00, the most relaxed options:")
	for i, r := range latest {
		fmt.Printf("  %d. leave at %s toward stop %d\n", i+1, gtfs.FormatTime(r.When), r.Stop)
	}

	// The Figure 3 comparison: naive vs optimized on this workload.
	const trials = 20
	var naive, opt time.Duration
	for i := 0; i < trials; i++ {
		q := ptldb.StopID(rng.Intn(n))
		start := time.Now()
		if _, err := db.EAKNNNaive("museums", q, after, 4); err != nil {
			log.Fatal(err)
		}
		naive += time.Since(start)
		start = time.Now()
		if _, err := db.EAKNN("museums", q, after, 4); err != nil {
			log.Fatal(err)
		}
		opt += time.Since(start)
	}
	fmt.Printf("EA-kNN over %d random hotels: naive %v/query, optimized %v/query (%.1fx)\n",
		trials, naive/trials, opt/trials, float64(naive)/float64(opt))
}
