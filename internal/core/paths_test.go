package core

import (
	"errors"
	"math/rand"
	"testing"

	"ptldb/internal/csa"
	"ptldb/internal/order"
	"ptldb/internal/timetable"
)

// validateDBJourney checks a reconstructed itinerary rides real connections
// in temporal order from src to dst arriving exactly at arr.
func validateDBJourney(t *testing.T, tt *timetable.Timetable, j DBJourney, src, dst timetable.StopID, arr timetable.Time) {
	t.Helper()
	if len(j.Stops) == 0 || j.Stops[0] != src || j.Stops[len(j.Stops)-1] != dst {
		t.Fatalf("journey endpoints: %v (want %d ... %d)", j.Stops, src, dst)
	}
	if len(j.Trips) != len(j.Stops)-1 {
		t.Fatalf("journey has %d stops but %d trips", len(j.Stops), len(j.Trips))
	}
	if j.Arr != arr {
		t.Fatalf("journey arrives %v, want %v", j.Arr, arr)
	}
	// Replay the legs on the timetable: each consecutive stop pair must be
	// linked by a connection of the recorded trip, in nondecreasing time.
	clock := timetable.NegInfinity
	for i := 0; i+1 < len(j.Stops); i++ {
		from, to, trip := j.Stops[i], j.Stops[i+1], j.Trips[i]
		found := false
		for _, ci := range tt.Outgoing(from) {
			c := tt.Connection(ci)
			if c.To == to && c.Trip == trip && c.Dep >= clock {
				clock = c.Arr
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("leg %d: no connection %d->%d on trip %d after %v", i, from, to, trip, clock)
		}
	}
	if clock != arr && len(j.Trips) > 0 {
		t.Fatalf("replayed arrival %v, journey claims %v", clock, arr)
	}
}

func TestPathTablesPaperExample(t *testing.T) {
	tt := timetable.PaperExample()
	st, _ := paperStore(t)
	if st.HasPathTables() {
		t.Fatal("path tables exist before build")
	}
	if _, _, err := st.EarliestArrivalJourneyDB(5, 6, 0); err == nil {
		t.Error("journey query without path tables succeeded")
	}
	if err := st.BuildPathTables(tt); err != nil {
		t.Fatal(err)
	}
	if !st.HasPathTables() {
		t.Fatal("path tables missing after build")
	}

	// Full trip-1 ride 5 -> 6 via the center.
	j, ok, err := st.EarliestArrivalJourneyDB(5, 6, 28800)
	if err != nil || !ok {
		t.Fatalf("journey 5->6: %v %v", ok, err)
	}
	validateDBJourney(t, tt, j, 5, 6, 43200)
	if j.Dep != 28800 {
		t.Errorf("journey departs %v, want 28800", j.Dep)
	}

	// Unreachable after the last departure.
	if _, ok, err := st.EarliestArrivalJourneyDB(5, 6, 28801); err != nil || ok {
		t.Errorf("journey after close: %v %v", ok, err)
	}
	// A stop outside the network is an invalid argument, not "no journey".
	for _, pair := range [][2]timetable.StopID{{-1, 6}, {5, timetable.StopID(st.Meta().Stops)}} {
		if _, _, err := st.EarliestArrivalJourneyDB(pair[0], pair[1], 0); !errors.Is(err, ErrInvalidArgument) {
			t.Errorf("journey %d->%d: err = %v, want ErrInvalidArgument", pair[0], pair[1], err)
		}
	}
	// Same-stop journey.
	j, ok, err = st.EarliestArrivalJourneyDB(2, 2, 32400)
	if err != nil || !ok {
		t.Fatalf("same-stop journey: %v %v", ok, err)
	}
	if len(j.Stops) != 1 || j.Stops[0] != 2 {
		t.Errorf("same-stop journey = %+v", j)
	}
}

// TestPathTablesRandom validates database-only journeys against the CSA
// oracle on random networks: same arrival, valid legs.
func TestPathTablesRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for iter := 0; iter < 3; iter++ {
		tt := randomTimetable(rng, 12+rng.Intn(8), 150+rng.Intn(100))
		st, _ := newStore(t, tt, order.ByNeighborDegree(tt), BuildOptions{})
		if err := st.BuildPathTables(tt); err != nil {
			t.Fatal(err)
		}
		general := st.DB.Registry().Exec.GeneralRuns.Load()
		n := tt.NumStops()
		for trial := 0; trial < 60; trial++ {
			s := timetable.StopID(rng.Intn(n))
			g := timetable.StopID(rng.Intn(n))
			if s == g {
				continue
			}
			tq := timetable.Time(rng.Intn(90000))
			want := csa.EarliestArrival(tt, s, g, tq)
			j, ok, err := st.EarliestArrivalJourneyDB(s, g, tq)
			if err != nil {
				t.Fatal(err)
			}
			if ok != (want < timetable.Infinity) {
				t.Fatalf("journey ok=%v, EA=%v", ok, want)
			}
			if ok {
				validateDBJourney(t, tt, j, s, g, want)
				if j.Dep < tq {
					t.Fatalf("journey departs %v before query time %v", j.Dep, tq)
				}
			}
		}
		if now := st.DB.Registry().Exec.GeneralRuns.Load(); now != general {
			t.Errorf("journeys ran the general executor %d times, want 0", now-general)
		}
	}
}
