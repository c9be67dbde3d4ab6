package csa

import (
	"slices"
	"sort"

	"ptldb/internal/timetable"
)

// EarliestArrivalJourney returns the connection sequence of a journey from s
// to g departing no sooner than t and arriving at EA(s, g, t). The second
// result is false when g is unreachable. For s == g it returns an empty
// journey and true.
//
// PTLDB itself answers timestamps only — the paper notes that full paths
// would be stored expanded in the database — so path reconstruction runs the
// Connection Scan with parent pointers; the arrival time always matches the
// label-based answer (the labels are exact).
func EarliestArrivalJourney(tt *timetable.Timetable, s, g timetable.StopID, t timetable.Time) ([]timetable.Connection, bool) {
	if s == g {
		return nil, true
	}
	tree := EarliestArrivalTree(tt, s, t)
	if tree.Arr[g] == timetable.Infinity {
		return nil, false
	}
	return tree.Journey(tt, g), true
}

// Tree is the earliest-arrival tree of one source and departure time: Arr[v]
// is EA(src, v, t), and Journey walks the parent pointers to v.
type Tree struct {
	Arr []timetable.Time
	// parent[v] is the index of the connection that reaches v at Arr[v] (-1
	// for the source and for unreachable stops).
	parent []int32
	src    timetable.StopID
}

// EarliestArrivalTree runs the Connection Scan from s at time t with parent
// pointers: one scan answers EA(s, v, t), and a journey achieving it, for
// every stop v.
func EarliestArrivalTree(tt *timetable.Timetable, s timetable.StopID, t timetable.Time) Tree {
	n := tt.NumStops()
	tree := Tree{Arr: make([]timetable.Time, n), parent: make([]int32, n), src: s}
	for i := range tree.Arr {
		tree.Arr[i] = timetable.Infinity
		tree.parent[i] = -1
	}
	tree.Arr[s] = t
	conns := tt.Connections()
	i := sort.Search(len(conns), func(i int) bool { return conns[i].Dep >= t })
	for ; i < len(conns); i++ {
		c := conns[i]
		if c.Dep >= tree.Arr[c.From] && c.Arr < tree.Arr[c.To] {
			tree.Arr[c.To] = c.Arr
			tree.parent[c.To] = int32(i)
		}
	}
	return tree
}

// Journey returns the tree's connections from its source to g in riding
// order, empty when g is the source. g must be reachable.
func (tree Tree) Journey(tt *timetable.Timetable, g timetable.StopID) []timetable.Connection {
	var legs []timetable.Connection
	for at := g; at != tree.src; {
		c := tt.Connection(tree.parent[at])
		legs = append(legs, c)
		at = c.From
	}
	slices.Reverse(legs)
	return legs
}

// LatestDepartureJourney returns the connection sequence of a journey from s
// to g arriving no later than t and departing at LD(s, g, t). The second
// result is false when no such journey exists.
func LatestDepartureJourney(tt *timetable.Timetable, s, g timetable.StopID, t timetable.Time) ([]timetable.Connection, bool) {
	if s == g {
		return nil, true
	}
	n := tt.NumStops()
	dep := make([]timetable.Time, n)
	parent := make([]int32, n)
	for i := range dep {
		dep[i] = timetable.NegInfinity
		parent[i] = -1
	}
	dep[g] = t
	conns := tt.Connections()
	idx := make([]int32, 0, len(conns))
	for i := range conns {
		if conns[i].Arr <= t {
			idx = append(idx, int32(i))
		}
	}
	sort.Slice(idx, func(a, b int) bool { return conns[idx[a]].Arr > conns[idx[b]].Arr })
	for _, ci := range idx {
		c := conns[ci]
		if c.Arr <= dep[c.To] && c.Dep > dep[c.From] {
			dep[c.From] = c.Dep
			parent[c.From] = ci
		}
	}
	if dep[s] == timetable.NegInfinity {
		return nil, false
	}
	var out []timetable.Connection
	for at := s; at != g; {
		c := tt.Connection(parent[at])
		out = append(out, c)
		at = c.To
	}
	return out, true
}

// Transfers counts the vehicle changes along a journey.
func Transfers(journey []timetable.Connection) int {
	n := 0
	for i := 1; i < len(journey); i++ {
		if journey[i].Trip != journey[i-1].Trip {
			n++
		}
	}
	return n
}
