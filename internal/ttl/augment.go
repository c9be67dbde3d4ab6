package ttl

import (
	"slices"
	"sort"

	"ptldb/internal/timetable"
)

// Augment adds the PTLDB dummy tuples of paper Section 3.1 in place and
// returns l. Augment is idempotent.
//
// For every stop v, a dummy tuple ⟨v, t, t, −1, −1⟩ is appended to both
// L_out(v) and L_in(v) for every distinct timestamp t in:
//
//   - arrivals at v recorded in other stops' out-labels (tuples with
//     hub = v in any L_out(u)),
//   - departures from v recorded in other stops' in-labels (tuples with
//     hub = v in any L_in(u)), and
//   - arrivals at v in v's own in-label.
//
// This is the rule that reproduces Table 1 of the paper exactly; it folds the
// three TTL query cases (hub = g, hub = s, and the proper join) into the
// single join of the paper's Code 1: a tuple l1 ∈ L_out(s) with hub = g joins
// the dummy ⟨g, l1.t_a, l1.t_a⟩ in L_in(g), and a tuple l2 ∈ L_in(g) with
// hub = s joins the dummy ⟨s, l2.t_d, l2.t_d⟩ in L_out(s).
func (l *Labels) Augment() *Labels {
	if l.Augmented {
		return l
	}
	n := len(l.In)
	times := make([][]timetable.Time, n)
	for u := 0; u < n; u++ {
		for _, x := range l.Out[u] {
			times[x.Hub] = append(times[x.Hub], x.Arr)
		}
		for _, y := range l.In[u] {
			times[y.Hub] = append(times[y.Hub], y.Dep)
			times[u] = append(times[u], y.Arr)
		}
	}
	for v, ts := range times {
		if len(ts) == 0 {
			continue
		}
		slices.Sort(ts)
		ts = slices.Compact(ts)
		run := make([]Tuple, len(ts))
		for i, t := range ts {
			run[i] = Tuple{Hub: timetable.StopID(v), Dep: t, Arr: t, Pivot: timetable.NoStop, Trip: timetable.NoTrip}
		}
		// Real tuples reference hubs that outrank their stop, so neither
		// label has a tuple of hub v yet: the run goes in whole, after the
		// smaller hubs.
		for _, label := range [2]*[]Tuple{&l.Out[v], &l.In[v]} {
			at := sort.Search(len(*label), func(i int) bool { return (*label)[i].Hub > timetable.StopID(v) })
			*label = slices.Insert(*label, at, run...)
		}
	}
	l.Augmented = true
	return l
}

// Clone returns a deep copy of the labels.
func (l *Labels) Clone() *Labels {
	c := &Labels{
		In:        make([][]Tuple, len(l.In)),
		Out:       make([][]Tuple, len(l.Out)),
		Augmented: l.Augmented,
	}
	if l.Ranks != nil {
		c.Ranks = append([]int32(nil), l.Ranks...)
	}
	for v := range l.In {
		c.In[v] = append([]Tuple(nil), l.In[v]...)
		c.Out[v] = append([]Tuple(nil), l.Out[v]...)
	}
	return c
}
