package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"ptldb/internal/csa"
	"ptldb/internal/order"
	"ptldb/internal/timetable"
)

// horizonTimes are the query times at and past both ends of tt's timetable:
// before and at time 0, the first departure, the last arrival and the second
// after it, the first and last second of the last hour bucket, 200:00:00 and
// the largest 32-bit time.
func horizonTimes(tt *timetable.Timetable) []timetable.Time {
	last := tt.MaxTime() / DefaultBucketSeconds * DefaultBucketSeconds
	return []timetable.Time{-5, 0, tt.MinTime(), tt.MaxTime(), tt.MaxTime() + 1,
		last, last + DefaultBucketSeconds - 1, 200 * 3600, math.MaxInt32}
}

// neighbors turns CSA's kNN answer into the store's result type.
func neighbors(ns []csa.Neighbor) []Result {
	out := make([]Result, len(ns))
	for i, n := range ns {
		out[i] = Result{Stop: n.Stop, When: n.When}
	}
	return out
}

// TestHorizonMatchesCSA: a query at any t answers what CSA answers on the
// timetable (DESIGN.md §7.4) — EA before the first departure finds the first
// journeys, a journey may cross midnight into times past 24:00:00, and LD
// after the last arrival, which the kNN and one-to-many kernels answer from
// the last hour bucket, finds the last ones — for every query code, the
// self-query's dummy-tuple answer aside.
func TestHorizonMatchesCSA(t *testing.T) {
	tt := timetable.HorizonExample()
	targets := []timetable.StopID{2, 4, 5}
	st, _ := newStore(t, tt, order.ByDegree(tt), BuildOptions{}, addSet("poi", targets, len(targets)))
	n := timetable.StopID(tt.NumStops())
	// check fails the query what unless it ran and agrees with CSA.
	check := func(what string, agrees bool, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !agrees {
			t.Errorf("%s", what)
		}
	}
	for _, tq := range horizonTimes(tt) {
		for s := timetable.StopID(0); s < n; s++ {
			for g := timetable.StopID(0); g < n; g++ {
				if s == g {
					continue
				}
				arr, ok, err := st.EarliestArrival(s, g, tq)
				want := csa.EarliestArrival(tt, s, g, tq)
				check(fmt.Sprintf("EA(%d, %d, %d) = %d, %v; CSA %d", s, g, tq, arr, ok, want),
					ok == (want != timetable.Infinity) && (!ok || arr == want), err)
				dep, ok, err := st.LatestDeparture(s, g, tq)
				want = csa.LatestDeparture(tt, s, g, tq)
				check(fmt.Sprintf("LD(%d, %d, %d) = %d, %v; CSA %d", s, g, tq, dep, ok, want),
					ok == (want != timetable.NegInfinity) && (!ok || dep == want), err)
				for _, span := range [][2]timetable.Time{{tq, math.MaxInt32}, {-5, tq}} {
					dur, ok, err := st.ShortestDuration(s, g, span[0], span[1])
					want = csa.ShortestDuration(tt, s, g, span[0], span[1])
					check(fmt.Sprintf("SD(%d, %d, %d, %d) = %d, %v; CSA %d", s, g, span[0], span[1], dur, ok, want),
						ok == (want != timetable.Infinity) && (!ok || dur == want), err)
				}
			}
		}
		// A kNN from a target answers by its dummy tuples, so the sources
		// are the stops outside the set.
		for _, q := range []timetable.StopID{0, 1, 3} {
			results := func(what string, got []Result, err error, want []csa.Neighbor) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s(%d, %d): %v", what, q, tq, err)
				}
				if w := neighbors(want); !slices.Equal(got, w) {
					t.Errorf("%s(%d, %d) = %v; CSA %v", what, q, tq, got, w)
				}
			}
			for k := 1; k <= len(targets); k++ {
				wantEA, wantLD := csa.EarliestArrivalKNN(tt, q, targets, tq, k), csa.LatestDepartureKNN(tt, q, targets, tq, k)
				got, err := st.EAKNN("poi", q, tq, k)
				results(fmt.Sprintf("EA kNN k=%d", k), got, err, wantEA)
				got, err = st.EAKNNNaive("poi", q, tq, k)
				results(fmt.Sprintf("EA naive kNN k=%d", k), got, err, wantEA)
				got, err = st.LDKNN("poi", q, tq, k)
				results(fmt.Sprintf("LD kNN k=%d", k), got, err, wantLD)
				got, err = st.LDKNNNaive("poi", q, tq, k)
				results(fmt.Sprintf("LD naive kNN k=%d", k), got, err, wantLD)
			}
			got, err := st.EAOTM("poi", q, tq)
			results("EA one-to-many", got, err, csa.EarliestArrivalKNN(tt, q, targets, tq, len(targets)))
			got, err = st.LDOTM("poi", q, tq)
			results("LD one-to-many", got, err, csa.LatestDepartureKNN(tt, q, targets, tq, len(targets)))
		}
	}
}
