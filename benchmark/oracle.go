package main

import (
	"fmt"
	"sort"

	"ptldb/internal/core"
	"ptldb/internal/csa"
	"ptldb/internal/serve"
	"ptldb/internal/timetable"
)

// answer is a query result in the one shape all seven kinds fit.
type answer struct {
	Found   bool
	Value   timetable.Time
	Results []core.Result
}

func (a answer) equal(b answer) bool {
	if a.Found != b.Found || a.Value != b.Value || len(a.Results) != len(b.Results) {
		return false
	}
	for i := range a.Results {
		if a.Results[i] != b.Results[i] {
			return false
		}
	}
	return true
}

// ask runs r against a store — a *ptldb.DB, a tenant's database or a wrapper
// around either.
func ask(st serve.Store, r request) (answer, error) {
	var a answer
	var err error
	switch r.Kind {
	case kEA:
		a.Value, a.Found, err = st.EarliestArrival(r.From, r.To, r.T)
	case kLD:
		a.Value, a.Found, err = st.LatestDeparture(r.From, r.To, r.T)
	case kSD:
		a.Value, a.Found, err = st.ShortestDuration(r.From, r.To, r.T, r.TEnd)
	case kEAKNN:
		a.Results, err = st.EAKNN(targetSet, r.From, r.T, knnK)
	case kLDKNN:
		a.Results, err = st.LDKNN(targetSet, r.From, r.T, knnK)
	case kEAOTM:
		a.Results, err = st.EAOTM(targetSet, r.From, r.T)
	default:
		a.Results, err = st.LDOTM(targetSet, r.From, r.T)
	}
	return a, err
}

// oracle answers requests on a dataset's timetable with the Connection Scan
// Algorithm. It remembers the backward scans of the LD set queries, which
// depend on the target and the deadline but not on the query stop.
type oracle struct {
	ds *dataset
	ld map[[2]int64][]timetable.Time
}

func newOracle(ds *dataset) *oracle { return &oracle{ds: ds, ld: map[[2]int64][]timetable.Time{}} }

// latestDepartures is csa.LatestDepartureOneToMany for a query stop outside
// the target set, with the per-target scans remembered.
func (o *oracle) latestDepartures(q timetable.StopID, t timetable.Time) []timetable.Time {
	per := make([]timetable.Time, len(o.ds.targets))
	for i, w := range o.ds.targets {
		key := [2]int64{int64(w), int64(t)}
		all, ok := o.ld[key]
		if !ok {
			all = csa.LatestDepartureAll(o.ds.tt, w, t)
			o.ld[key] = all
		}
		per[i] = all[q]
	}
	return per
}

// check recomputes r and compares got with it: exact on every time,
// insensitive to which of several tied stops a kNN answer names (as the core
// tests compare).
func (o *oracle) check(r request, got answer) error {
	ds := o.ds
	tt := ds.tt
	switch r.Kind {
	case kEA:
		want := csa.EarliestArrival(tt, r.From, r.To, r.T)
		return checkPoint(got, want, want < timetable.Infinity)
	case kLD:
		want := csa.LatestDeparture(tt, r.From, r.To, r.T)
		return checkPoint(got, want, want > timetable.NegInfinity)
	case kSD:
		want := csa.ShortestDuration(tt, r.From, r.To, r.T, r.TEnd)
		return checkPoint(got, want, want < timetable.Infinity)
	}
	ea := r.Kind == kEAKNN || r.Kind == kEAOTM
	var per []timetable.Time
	if ea {
		per = csa.EarliestArrivalOneToMany(tt, r.From, ds.targets, r.T)
	} else {
		per = o.latestDepartures(r.From, r.T)
	}
	exact := make(map[timetable.StopID]timetable.Time, len(per))
	var want []timetable.Time
	for i, w := range ds.targets {
		if (ea && per[i] < timetable.Infinity) || (!ea && per[i] > timetable.NegInfinity) {
			exact[w] = per[i]
			want = append(want, per[i])
		}
	}
	sort.Slice(want, func(i, j int) bool {
		if ea {
			return want[i] < want[j]
		}
		return want[i] > want[j]
	})
	if r.Kind.class() == cKNN && len(want) > knnK {
		want = want[:knnK]
	}
	if len(got.Results) != len(want) {
		return fmt.Errorf("%d results, oracle has %d", len(got.Results), len(want))
	}
	seen := make(map[timetable.StopID]bool, len(want))
	for i, res := range got.Results {
		if res.When != want[i] {
			return fmt.Errorf("position %d is %v, oracle says %v", i, res.When, want[i])
		}
		if seen[res.Stop] {
			return fmt.Errorf("stop %d returned twice", res.Stop)
		}
		seen[res.Stop] = true
		if t, ok := exact[res.Stop]; !ok || t != res.When {
			return fmt.Errorf("stop %d claims %v, its optimum is %v (target: %v)", res.Stop, res.When, t, ok)
		}
	}
	return nil
}

func checkPoint(got answer, want timetable.Time, found bool) error {
	if got.Found != found || (found && got.Value != want) {
		return fmt.Errorf("got %v (found %v), oracle says %v (found %v)", got.Value, got.Found, want, found)
	}
	return nil
}
