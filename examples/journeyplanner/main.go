// Journeyplanner: a terminal trip planner over a PTLDB database. It answers
// "when do I arrive?" with the database (paper Code 1) and reconstructs the
// full itinerary on the network, checking that both agree — the paper keeps
// timestamps in the database and notes expanded paths would be stored
// alongside for real deployments.
//
// Usage: journeyplanner [src dst hh:mm:ss]   (defaults: a random rush-hour trip)
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"strconv"

	"ptldb"
	"ptldb/internal/gtfs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("journeyplanner: ")

	tt, err := ptldb.GenerateCity("Berlin", 0.01, 7)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "ptldb-journey")
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
	// The expanded-path tables (the paper's suggested deployment) let the
	// database alone reconstruct an itinerary; the writer takes the
	// directory, and the handle opened after it serves them.
	if err := ptldb.BuildPathTables(dir, "base", tt, ptldb.Config{}); err != nil {
		log.Fatal(err)
	}
	if db, err = ptldb.Open(dir, ptldb.Config{}); err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	src, dst := ptldb.StopID(0), ptldb.StopID(0)
	depart := ptldb.Time(8 * 3600)
	if len(os.Args) == 4 {
		a, err1 := strconv.Atoi(os.Args[1])
		b, err2 := strconv.Atoi(os.Args[2])
		t, err3 := gtfs.ParseTime(os.Args[3])
		if err1 != nil || err2 != nil || err3 != nil {
			log.Fatal("usage: journeyplanner [src dst hh:mm:ss]")
		}
		src, dst, depart = ptldb.StopID(a), ptldb.StopID(b), t
	} else {
		// Pick a random pair that is actually connected at rush hour.
		rng := rand.New(rand.NewSource(99))
		for {
			src = ptldb.StopID(rng.Intn(tt.NumStops()))
			dst = ptldb.StopID(rng.Intn(tt.NumStops()))
			if src == dst {
				continue
			}
			if _, ok, _ := db.EarliestArrival(src, dst, depart); ok {
				break
			}
		}
	}

	fmt.Printf("trip: %s -> %s, departing after %s\n",
		tt.Stop(src).Name, tt.Stop(dst).Name, gtfs.FormatTime(depart))

	arr, ok, err := db.EarliestArrival(src, dst, depart)
	if err != nil {
		log.Fatal(err)
	}
	if !ok {
		fmt.Println("no journey today.")
		return
	}
	fmt.Printf("database says: arrive %s\n", gtfs.FormatTime(arr))

	journey, ok := ptldb.EarliestArrivalJourney(tt, src, dst, depart)
	if !ok {
		log.Fatal("reconstruction disagrees with the database")
	}
	if got := journey.Legs[len(journey.Legs)-1].Arr; got != arr {
		log.Fatalf("itinerary arrives %v, database says %v", got, arr)
	}
	fmt.Printf("itinerary (%d legs, %d transfers):\n", len(journey.Legs), journey.Transfers)
	for i, leg := range journey.Legs {
		if i == 0 || leg.Trip != journey.Legs[i-1].Trip {
			fmt.Printf("  board trip %d at %s (%s)\n", leg.Trip, tt.Stop(leg.From).Name, gtfs.FormatTime(leg.Dep))
		}
		if i == len(journey.Legs)-1 || journey.Legs[i+1].Trip != leg.Trip {
			fmt.Printf("    ride to %s, arrive %s\n", tt.Stop(leg.To).Name, gtfs.FormatTime(leg.Arr))
		}
	}

	// The same itinerary comes entirely from the database's path tables.
	dj, ok, err := db.JourneyFromDB(src, dst, depart)
	if err != nil || !ok {
		log.Fatalf("database journey: %v %v", ok, err)
	}
	if dj.Arr != arr {
		log.Fatalf("database journey arrives %v, expected %v", dj.Arr, arr)
	}
	fmt.Printf("database-only reconstruction agrees: %d stops, arrive %s\n",
		len(dj.Stops), gtfs.FormatTime(dj.Arr))

	// The return planning question: latest departure home to be back by 22:00.
	if dep, ok, _ := db.LatestDeparture(dst, src, 22*3600); ok {
		fmt.Printf("return: leave %s by %s to be back at %s before 22:00\n",
			tt.Stop(dst).Name, gtfs.FormatTime(dep), tt.Stop(src).Name)
	}
	// And the flexible-traveller question: the fastest ride of the day.
	if dur, ok, _ := db.ShortestDuration(src, dst, tt.MinTime(), tt.MaxTime()); ok {
		fmt.Printf("fastest connection of the day takes %s\n", gtfs.FormatTime(dur))
	}
}
