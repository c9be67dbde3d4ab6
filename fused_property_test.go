package ptldb

// fused_property_test.go checks the condensed kNN / one-to-many kernel on
// random synthetic cities three ways: the fused answer must equal the general
// executor's exactly, agree with the Connection Scan oracle on the timetable,
// and satisfy the paper's own relations between the queries — kNN(k) is a
// prefix of kNN(k+1), and kNN is a subset and the head of one-to-many — for
// EA and LD. Which of several tied stops a kNN returns is implementation-
// defined, in PTLDB as in the paper, so the relations are checked on values.
// Query stops are drawn inside and outside the target set, timestamps before,
// within and after the service day (negative ones included). It checks the
// vertex-to-vertex answers on the same cities by the relations between EA, LD
// and SD alone.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ptldb/internal/csa"
)

// propertyCities are the random synthetic cities both tests draw from.
var propertyCities = []struct {
	name  string
	scale float64
}{
	{"Austin", 0.01},
	{"Salt Lake City", 0.006},
	{"Budapest", 0.005},
}

func TestCondensedKernelProperties(t *testing.T) {
	const kmax = 4
	for ci, city := range propertyCities {
		seed := int64(101 + ci)
		tt, err := GenerateCity(city.name, city.scale, seed)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		n := tt.NumStops()
		var targets []StopID
		inSet := map[StopID]bool{}
		for _, v := range rng.Perm(n)[:max(kmax+1, n/3)] {
			targets = append(targets, StopID(v))
			inSet[StopID(v)] = true
		}

		dir := t.TempDir()
		fdb, err := Create(dir, tt, Config{Device: "ram"})
		if err != nil {
			t.Fatal(err)
		}
		defer fdb.Close()
		if err := fdb.AddTargetSet("poi", targets, kmax); err != nil {
			t.Fatal(err)
		}
		gdb, err := OpenReference(dir, Config{Device: "ram"})
		if err != nil {
			t.Fatal(err)
		}
		defer gdb.Close()

		span := int64(tt.MaxTime() - tt.MinTime())
		for trial := 0; trial < 20; trial++ {
			q := StopID(rng.Intn(n))
			when := tt.MinTime() + Time(rng.Int63n(span+7200)-3600)
			if trial%10 == 9 {
				when = -Time(rng.Intn(7200)) - 1
			}
			for _, ea := range []bool{true, false} {
				knn, otm, name := fdb.EAKNN, fdb.EAOTM, "EA"
				gknn, gotm := gdb.EAKNN, gdb.EAOTM
				if !ea {
					knn, otm, name = fdb.LDKNN, fdb.LDOTM, "LD"
					gknn, gotm = gdb.LDKNN, gdb.LDOTM
				}
				desc := fmt.Sprintf("%s %s q=%d (target: %v) t=%d", city.name, name, q, inSet[q], when)

				all, err := otm("poi", q, when)
				if err != nil {
					t.Fatalf("%s: one-to-many: %v", desc, err)
				}
				if want, err := gotm("poi", q, when); err != nil || fmt.Sprint(all) != fmt.Sprint(want) {
					t.Fatalf("%s: one-to-many fused %v, general %v (%v)", desc, all, want, err)
				}
				optimum := map[StopID]Time{}
				for _, r := range all {
					optimum[r.Stop] = r.When
				}
				var prev []Result
				for k := 1; k <= kmax; k++ {
					got, err := knn("poi", q, when, k)
					if err != nil {
						t.Fatalf("%s k=%d: %v", desc, k, err)
					}
					if want, err := gknn("poi", q, when, k); err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s k=%d: fused %v, general %v (%v)", desc, k, got, want, err)
					}
					if len(got) != min(k, len(all)) || len(got) < len(prev) {
						t.Fatalf("%s: kNN(%d) = %v after %v, one-to-many %v", desc, k, got, prev, all)
					}
					for i, r := range got {
						if r.When != all[i].When || optimum[r.Stop] != r.When {
							t.Fatalf("%s: kNN(%d) = %v is not the head of one-to-many %v", desc, k, got, all)
						}
						if i < len(prev) && r.When != prev[i].When {
							t.Fatalf("%s: kNN(%d) = %v is not a prefix of kNN(%d) = %v", desc, k-1, prev, k, got)
						}
					}
					prev = got
				}

				// The timetable oracle treats a query stop that is itself a
				// target differently from the labels, so it judges only
				// queries from outside the set.
				if inSet[q] {
					continue
				}
				var want []csa.Neighbor
				if ea {
					want = csa.EarliestArrivalKNN(tt, q, targets, when, len(targets))
				} else {
					want = csa.LatestDepartureKNN(tt, q, targets, when, len(targets))
				}
				if len(all) != len(want) {
					t.Fatalf("%s: %d targets reached, oracle reaches %d", desc, len(all), len(want))
				}
				exact := map[StopID]Time{}
				for _, nb := range want {
					exact[nb.Stop] = nb.When
				}
				for i, r := range all {
					if opt, ok := exact[r.Stop]; !ok || opt != r.When || r.When != want[i].When {
						t.Fatalf("%s: position %d is %v, oracle has %v there and %v (reached: %v) for that stop",
							desc, i, r, want[i], opt, ok)
					}
				}
			}
		}
		if fused, general := fdb.Store().DB.FusedStats(); fused == 0 || general != 0 {
			t.Errorf("%s: production handle ran %d fused, %d general; want > 0 and 0", city.name, fused, general)
		}
		if fused, general := gdb.Store().DB.FusedStats(); fused != 0 || general == 0 {
			t.Errorf("%s: reference handle ran %d fused, %d general; want 0 and > 0", city.name, fused, general)
		}
	}
}

// TestV2VRelations checks the vertex-to-vertex answers against one another,
// for s != g at times before, within and after the service day: EA(s, g, t)
// and LD(s, g, t) are non-decreasing in t — and once there is no journey by
// EA there is none later, while once there is one by LD there is one later;
// SD(s, g, t, tEnd) <= EA(s, g, t) - t whenever EA(s, g, t) <= tEnd; and
// LD(s, g, EA(s, g, t)) >= t whenever EA(s, g, t) exists.
func TestV2VRelations(t *testing.T) {
	for ci, city := range propertyCities {
		seed := int64(101 + ci)
		tt, err := GenerateCity(city.name, city.scale, seed)
		if err != nil {
			t.Fatal(err)
		}
		db, err := Create(t.TempDir(), tt, Config{Device: "ram"})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		rng := rand.New(rand.NewSource(seed))
		n, span := tt.NumStops(), int64(tt.MaxTime()-tt.MinTime())
		journeys := 0
		for pair := 0; pair < 30; pair++ {
			s, g := StopID(rng.Intn(n)), StopID(rng.Intn(n-1))
			if g >= s {
				g++
			}
			times := []Time{-Time(rng.Intn(7200)) - 1}
			for i := 0; i < 8; i++ {
				times = append(times, tt.MinTime()+Time(rng.Int63n(span+7200)-3600))
			}
			slices.Sort(times)
			desc := fmt.Sprintf("%s s=%d g=%d", city.name, s, g)
			var prevEA, prevLD Time
			var prevEAOK, prevLDOK bool
			for i, when := range times {
				ea, eaOK, err := db.EarliestArrival(s, g, when)
				if err != nil {
					t.Fatal(err)
				}
				ld, ldOK, err := db.LatestDeparture(s, g, when)
				if err != nil {
					t.Fatal(err)
				}
				if i > 0 && ((eaOK && (!prevEAOK || ea < prevEA)) || (prevLDOK && (!ldOK || ld < prevLD))) {
					t.Fatalf("%s: from t=%d to t=%d, EA went %d (%v) -> %d (%v) and LD %d (%v) -> %d (%v)",
						desc, times[i-1], when, prevEA, prevEAOK, ea, eaOK, prevLD, prevLDOK, ld, ldOK)
				}
				prevEA, prevEAOK, prevLD, prevLDOK = ea, eaOK, ld, ldOK
				if !eaOK {
					continue
				}
				journeys++
				tEnd := ea + Time(rng.Intn(3600))
				sd, sdOK, err := db.ShortestDuration(s, g, when, tEnd)
				if err != nil {
					t.Fatal(err)
				}
				if !sdOK || sd > ea-when {
					t.Fatalf("%s t=%d tEnd=%d: SD = %d (%v), EA(t) - t = %d", desc, when, tEnd, sd, sdOK, ea-when)
				}
				if back, ok, err := db.LatestDeparture(s, g, ea); err != nil || !ok || back < when {
					t.Fatalf("%s t=%d: EA = %d, but LD(EA) = %d (%v, %v)", desc, when, ea, back, ok, err)
				}
			}
		}
		if journeys < 30 {
			t.Errorf("%s: %d of 270 queries found a journey; the relations were barely exercised", city.name, journeys)
		}
	}
}
