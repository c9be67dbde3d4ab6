// Geomarketing: the paper's one-to-many motivating scenario (Section 3.3) —
// "near what stop must one build a franchise store to be most easily
// reachable by clients". For each candidate site the LD one-to-many query
// tells every residential stop the latest time a client may leave home and
// still arrive before the store's 11:00 morning rush; the site whose
// clients can leave latest on average wins. The EA one-to-many query then
// produces the delivery-time table of the winning site.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"

	"ptldb"
	"ptldb/internal/gtfs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("geomarketing: ")

	tt, err := ptldb.GenerateCity("Houston", 0.015, 23)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "ptldb-geo")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	db, err := ptldb.Create(dir, tt, ptldb.Config{})
	if err == nil {
		err = db.Close()
	}
	if err != nil {
		log.Fatal(err)
	}

	// "Residential" stops: a 5% sample of the city.
	rng := rand.New(rand.NewSource(2))
	n := tt.NumStops()
	var homes []ptldb.StopID
	for _, idx := range rng.Perm(n)[:n/20+1] {
		homes = append(homes, ptldb.StopID(idx))
	}
	if err := ptldb.AddTargetSet(dir, "base", "homes", homes, 4, ptldb.Config{}); err != nil {
		log.Fatal(err)
	}
	if db, err = ptldb.Open(dir, ptldb.Config{}); err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	fmt.Printf("scoring candidate store sites against %d residential stops\n", len(homes))

	// Candidate sites: a handful of central stops. LD-OTM is defined from
	// the store toward targets; for reachability *of* the store we use the
	// symmetric reading the paper gives for geomarketing: how late can one
	// depart from the site's neighborhood and still make the 11:00 rush.
	deadline := ptldb.Time(11 * 3600)
	type site struct {
		stop    ptldb.StopID
		reached int
		avgDep  ptldb.Time
	}
	var sites []site
	for _, idx := range rng.Perm(n)[:6] {
		cand := ptldb.StopID(idx)
		res, err := db.LDOTM("homes", cand, deadline)
		if err != nil {
			log.Fatal(err)
		}
		if len(res) == 0 {
			sites = append(sites, site{stop: cand})
			continue
		}
		var sum int64
		for _, r := range res {
			sum += int64(r.When)
		}
		sites = append(sites, site{
			stop:    cand,
			reached: len(res),
			avgDep:  ptldb.Time(sum / int64(len(res))),
		})
	}
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].reached != sites[j].reached {
			return sites[i].reached > sites[j].reached
		}
		return sites[i].avgDep > sites[j].avgDep
	})

	fmt.Println("candidate sites (by residential coverage before 11:00):")
	for i, s := range sites {
		if s.reached == 0 {
			fmt.Printf("  %d. stop %-5d unreachable market\n", i+1, s.stop)
			continue
		}
		fmt.Printf("  %d. stop %-5d covers %3d/%d homes, avg latest departure %s\n",
			i+1, s.stop, s.reached, len(homes), gtfs.FormatTime(s.avgDep))
	}

	winner := sites[0]
	fmt.Printf("\nchosen site: stop %d (%s)\n", winner.stop, tt.Stop(winner.stop).Name)

	// Delivery-time table: when do morning couriers dispatched at 08:00
	// from the store reach each neighborhood?
	deliveries, err := db.EAOTM("homes", winner.stop, 8*3600)
	if err != nil {
		log.Fatal(err)
	}
	show := deliveries
	if len(show) > 8 {
		show = show[:8]
	}
	fmt.Println("first deliveries (courier leaves 08:00):")
	for _, r := range show {
		fmt.Printf("  stop %-5d delivered by %s\n", r.Stop, gtfs.FormatTime(r.When))
	}
	if len(deliveries) > len(show) {
		fmt.Printf("  ... and %d more neighborhoods\n", len(deliveries)-len(show))
	}
}
