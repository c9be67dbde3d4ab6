package ttl

import (
	"cmp"
	"slices"
	"sort"

	"ptldb/internal/order"
	"ptldb/internal/timetable"
)

// hubRun is one entry of a label's build-time directory: the tuples of hub
// occupy tuples[lo:hi] of the label. Every hub commits its batch in profile
// order, so a run is a Pareto antichain sorted by departure and therefore by
// arrival — "is there a tuple departing >= x arriving <= a" is answered by the
// first tuple departing >= x alone (see viaHub). Hubs commit in rank order, so
// a directory lists its hubs by increasing rank.
type hubRun struct {
	hub    timetable.StopID
	lo, hi int32
}

// half is one direction of the labels under construction: tuples aliases
// Labels.In or Labels.Out, runs[v] is the directory of tuples[v]. Searches
// read both; only the committing goroutine writes, between searches.
type half struct {
	tuples [][]Tuple
	runs   [][]hubRun
}

// add appends t to v's label, opening a directory entry when t is the first
// tuple of its hub there.
func (s *half) add(v timetable.StopID, t Tuple) {
	n := int32(len(s.tuples[v]))
	if r := s.runs[v]; len(r) > 0 && r[len(r)-1].hub == t.Hub {
		r[len(r)-1].hi = n + 1
	} else {
		s.runs[v] = append(r, hubRun{hub: t.Hub, lo: n, hi: n + 1})
	}
	s.tuples[v] = append(s.tuples[v], t)
}

// construction is a label set being built: the labels and the two
// directories over them, and the timetable's connections in decreasing
// arrival order, the scan order of every backward search (byArr is written
// once, by newConstruction, and only read afterwards).
type construction struct {
	l       *Labels
	in, out half
	byArr   []timetable.Connection
}

func newConstruction(tt *timetable.Timetable, ord order.Order) *construction {
	n := tt.NumStops()
	l := &Labels{
		In:    make([][]Tuple, n),
		Out:   make([][]Tuple, n),
		Ranks: ord.Ranks(),
	}
	byArr := slices.Clone(tt.Connections())
	// A total order, so no stable sort is needed: arrival descending, then the
	// keys of the departure order.
	slices.SortFunc(byArr, func(x, y timetable.Connection) int {
		if x.Arr != y.Arr {
			return cmp.Compare(y.Arr, x.Arr)
		}
		return cmp.Or(cmp.Compare(x.Dep, y.Dep), cmp.Compare(x.From, y.From),
			cmp.Compare(x.To, y.To), cmp.Compare(x.Trip, y.Trip))
	})
	return &construction{
		l:     l,
		in:    half{tuples: l.In, runs: make([][]hubRun, n)},
		out:   half{tuples: l.Out, runs: make([][]hubRun, n)},
		byArr: byArr,
	}
}

// finish puts every label into canonical (Hub, Dep) order and returns the
// labels. Runs are already sorted by departure, so this permutes whole runs
// by hub.
func (c *construction) finish() *Labels {
	var scratch []Tuple
	for _, s := range [2]*half{&c.in, &c.out} {
		for v, runs := range s.runs {
			slices.SortFunc(runs, func(x, y hubRun) int { return cmp.Compare(x.hub, y.hub) })
			label := s.tuples[v]
			scratch = append(scratch[:0], label...)
			n := 0
			for _, r := range runs {
				n += copy(label[n:], scratch[r.lo:r.hi])
			}
		}
	}
	return c.l
}

// newBuilder allocates the per-search scratch state for one worker. Builders
// share the construction read-only during searches; tuples are committed to
// it by the orchestration in parallel.go, never by the searches themselves.
func newBuilder(tt *timetable.Timetable, c *construction) *builder {
	return &builder{
		tt:     tt,
		c:      c,
		ranks:  c.l.Ranks,
		prof:   make([][]profEntry, tt.NumStops()),
		meta:   make([][]profMeta, tt.NumStops()),
		ownRun: make([]hubRun, tt.NumStops()),
	}
}

// profEntry is one Pareto profile point: a journey between the current hub
// and a stop, departing at d and arriving at a. Profiles are kept sorted by
// d; being Pareto antichains they are then sorted by a as well.
type profEntry struct {
	d, a timetable.Time
}

// profMeta carries reconstruction metadata parallel to profEntry. first is
// the trip of the journey's first leg (what label tuples record), last the
// trip of its final leg (needed to detect transfers when extending), and
// pivot the first transfer stop (NoStop while the journey is single-trip).
type profMeta struct {
	pivot       timetable.StopID
	first, last timetable.TripID
}

// metaLess orders profile metadata lexicographically. When several distinct
// journeys realize the same (departure, arrival) pair the profile keeps the
// smallest metadata, so the recorded witness is a property of the journeys,
// not of the order a search meets equal-time connections in (which the
// labels' digest pinned in TestBuildLabelsPinned would otherwise depend on).
func metaLess(a, b profMeta) bool {
	if a.first != b.first {
		return a.first < b.first
	}
	if a.pivot != b.pivot {
		return a.pivot < b.pivot
	}
	return a.last < b.last
}

// pendingTuple is one tentative label tuple produced by a search: the
// destination stop and the tuple to append to its label once the tuple is
// (re-)confirmed uncovered at commit time.
type pendingTuple struct {
	w timetable.StopID
	t Tuple
}

// builder carries one worker's scratch state for the per-hub searches, each
// a single scan over the time-sorted connections.
type builder struct {
	tt    *timetable.Timetable
	c     *construction
	ranks []int32

	// prof[w] is the Pareto profile of the current search at stop w, with
	// meta[w] parallel; a stop is reached when its profile is non-empty.
	// touched lists stops to reset after the search.
	prof    [][]profEntry
	meta    [][]profMeta
	touched []timetable.StopID

	// own is the current hub's own label (L_out(h) in a forward search,
	// L_in(h) in a backward one) and ownRun[x] the run of hub x in it, empty
	// when the label has none; indexOwn sets both, releaseOwn clears them.
	own    []Tuple
	ownRun []hubRun
	ownDir []hubRun

	// pend collects the surviving profile entries of the current search as
	// tentative tuples; the orchestration commits them afterwards.
	pend []pendingTuple

	stats BuildStats
}

// forward runs the pruned forward profile search from hub h, collecting a
// tentative tuple ⟨h, d, a⟩ for L_in(w) in b.pend for every Pareto journey
// h -> w not covered by the labels committed so far.
//
// The search is one scan over the timetable's connections in departure
// order, from h's first departure on. Strictly positive durations guarantee
// that when a connection departing at time t is scanned, every journey
// arriving at its departure stop by t is already in the profile, and that no
// connection scanned at t writes an entry another connection departing at t
// reads, so the order among equal departures does not matter (and metaLess
// keeps even the recorded metadata independent of it). A connection from a
// stop no journey has reached by its departure is skipped.
func (b *builder) forward(h timetable.StopID) {
	tt, rankH := b.tt, b.ranks[h]
	b.indexOwn(&b.c.out, h, 0)
	b.pend = b.pend[:0]
	var conns []timetable.Connection
	if out := tt.Outgoing(h); len(out) > 0 {
		conns = tt.Connections()[out[0]:]
	}

	for k := range conns {
		c := &conns[k]
		// Best (latest) departure from h that reaches u by c.Dep.
		var cand profEntry
		var m profMeta
		if u := c.From; u == h {
			cand = profEntry{d: c.Dep, a: c.Arr}
			m = profMeta{pivot: timetable.NoStop, first: c.Trip, last: c.Trip}
		} else {
			p := b.prof[u]
			if len(p) == 0 || p[0].a > c.Dep {
				continue
			}
			i := lastArrAtMost(p, c.Dep)
			cand = profEntry{d: p[i].d, a: c.Arr}
			m = b.meta[u][i]
			if c.Trip != m.last && m.pivot == timetable.NoStop {
				m.pivot = u
			}
			m.last = c.Trip
		}
		w := c.To
		if w == h || b.ranks[w] < rankH {
			// Journeys back to the hub decompose into later starts; journeys
			// to more important stops are covered by earlier hubs.
			continue
		}
		if i := lastArrAtMost(b.prof[w], cand.a); i >= 0 && b.prof[w][i].d >= cand.d {
			// Dominated. On an exact coordinate tie canonicalize the stored
			// metadata (see metaLess); the tying entry, if any, is exactly
			// the one the dominance probe found.
			if b.prof[w][i] == cand && metaLess(m, b.meta[w][i]) {
				b.meta[w][i] = m
			}
			continue
		}
		if b.coveredForward(w, cand.d, cand.a, 0) {
			continue
		}
		b.insert(w, cand, m)
	}
	b.collect(h)
}

// backward runs the pruned backward profile search toward hub h, collecting
// tentative tuples ⟨h, d, a⟩ for L_out(w) in b.pend for every Pareto journey
// w -> h not covered by the labels committed so far. It is forward mirrored
// in time: one scan over the connections in decreasing arrival order
// (construction.byArr), from h's last arrival on, skipping a connection into
// a stop no journey to h leaves at or after its arrival.
func (b *builder) backward(h timetable.StopID) {
	rankH := b.ranks[h]
	b.indexOwn(&b.c.in, h, 0)
	b.pend = b.pend[:0]
	var conns []timetable.Connection
	if in := b.tt.Incoming(h); len(in) > 0 {
		last := b.tt.Connection(in[len(in)-1]).Arr
		byArr := b.c.byArr
		conns = byArr[sort.Search(len(byArr), func(i int) bool { return byArr[i].Arr <= last }):]
	}

	for k := range conns {
		c := &conns[k]
		// Best (earliest) arrival at h for journeys leaving v at or after
		// c.Arr.
		var cand profEntry
		var m profMeta
		if v := c.To; v == h {
			cand = profEntry{d: c.Dep, a: c.Arr}
			m = profMeta{pivot: timetable.NoStop, first: c.Trip, last: c.Trip}
		} else {
			p := b.prof[v]
			if len(p) == 0 || p[len(p)-1].d < c.Arr {
				continue
			}
			i := firstDepAtLeast(p, c.Arr)
			cand = profEntry{d: c.Dep, a: p[i].a}
			m = b.meta[v][i]
			if c.Trip != m.first && m.pivot == timetable.NoStop {
				m.pivot = v
			}
			m.first = c.Trip
		}
		w := c.From
		if w == h || b.ranks[w] < rankH {
			continue
		}
		if i := firstDepAtLeast(b.prof[w], cand.d); i >= 0 && b.prof[w][i].a <= cand.a {
			if b.prof[w][i] == cand && metaLess(m, b.meta[w][i]) {
				b.meta[w][i] = m
			}
			continue
		}
		if b.coveredBackward(w, cand.d, cand.a, 0) {
			continue
		}
		b.insert(w, cand, m)
	}
	b.collect(h)
}

// collect drains the surviving profile entries of hub h's search into b.pend
// (in touch order, each stop's entries sorted by departure) and empties the
// touched profiles, which leaves every stop unreached for the next search.
func (b *builder) collect(h timetable.StopID) {
	for _, w := range b.touched {
		for i, e := range b.prof[w] {
			m := b.meta[w][i]
			b.pend = append(b.pend, pendingTuple{w: w, t: Tuple{Hub: h, Dep: e.d, Arr: e.a, Pivot: m.pivot, Trip: m.first}})
		}
		b.prof[w] = b.prof[w][:0]
		b.meta[w] = b.meta[w][:0]
	}
	b.touched = b.touched[:0]
	b.releaseOwn()
	b.stats.Searches++
	b.stats.TentativeTuples += int64(len(b.pend))
}

// lastArrAtMost returns the index of the profile entry with the largest
// departure among those arriving no later than t, or -1. Profiles are sorted
// by both coordinates, so this is the last entry with a <= t.
func lastArrAtMost(p []profEntry, t timetable.Time) int {
	lo, hi := 0, len(p)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p[mid].a <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// firstDepAtLeast returns the index of the profile entry with the smallest
// arrival among those departing no earlier than t, or -1.
func firstDepAtLeast(p []profEntry, t timetable.Time) int {
	lo, hi := 0, len(p)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p[mid].d < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(p) {
		return -1
	}
	return lo
}

// insert performs the Pareto insertion shared by both directions: e, which no
// entry dominates, replaces every entry it dominates (a contiguous run around
// its departure position).
func (b *builder) insert(w timetable.StopID, e profEntry, m profMeta) {
	p, ms := b.prof[w], b.meta[w]
	if len(p) == 0 {
		b.touched = append(b.touched, w)
	}
	i := sort.Search(len(p), func(i int) bool { return p[i].d >= e.d })
	// Entries left of i have d < e.d; those arriving >= e.a are dominated by
	// e and, arrivals being sorted, form the run immediately left of i.
	lo := i
	for lo > 0 && p[lo-1].a >= e.a {
		lo--
	}
	// An existing entry with d == e.d must have a > e.a (e is not
	// dominated), so it is dominated by e.
	hi := i
	if hi < len(p) && p[hi].d == e.d {
		hi++
	}
	b.prof[w] = splice(p, lo, hi, e)
	b.meta[w] = splice(ms, lo, hi, m)
}

// splice replaces s[lo:hi] with the single element e.
func splice[T any](s []T, lo, hi int, e T) []T {
	switch {
	case hi-lo == 1:
		s[lo] = e
		return s
	case hi-lo > 1:
		s[lo] = e
		return append(s[:lo+1], s[hi:]...)
	default: // hi == lo: pure insertion
		var zero T
		s = append(s, zero)
		copy(s[lo+1:], s[lo:len(s)-1])
		s[lo] = e
		return s
	}
}

// indexOwn makes label s.tuples[h] the builder's own label, entering its
// directory entries from index from on into ownRun (from is 0 for a search;
// a commit re-check needs only the current wave's runs).
//
// hotpath — allocheck root: once per search; the index is ranges into the
// label, never copies of it.
func (b *builder) indexOwn(s *half, h timetable.StopID, from int) {
	b.own, b.ownDir = s.tuples[h], s.runs[h][from:]
	for _, r := range b.ownDir {
		b.ownRun[r.hub] = r
	}
}

func (b *builder) releaseOwn() {
	for _, r := range b.ownDir {
		b.ownRun[r.hub] = hubRun{}
	}
	b.own, b.ownDir = nil, nil
}

// firstDep returns the index of the first tuple of run departing no earlier
// than t, len(run) if there is none.
func firstDep(run []Tuple, t timetable.Time) int {
	lo, hi := 0, len(run)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if run[mid].Dep < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// viaHub reports whether two runs of one hub x — first holding journeys into
// x, second journeys out of it — chain into a journey departing no earlier
// than d and arriving no later than a. Both runs ascend in departure and
// arrival, so the first tuple of first departing >= d reaches x earliest, and
// the first tuple of second leaving x at or after that arrives earliest: if
// that pair misses a, every pair does.
func viaHub(first, second []Tuple, d, a timetable.Time) bool {
	i := firstDep(first, d)
	if i == len(first) {
		return false
	}
	j := firstDep(second, first[i].Arr)
	return j < len(second) && second[j].Arr <= a
}

// coveredForward reports whether the labels certify a journey h -> w
// departing no earlier than d and arriving no later than a through a hub
// common to the own label L_out(h) and to the runs of L_in(w) from directory
// index from on. w itself is never such a hub: the search reaches only stops
// that h outranks, and L_out(h) holds only hubs that outrank h (Validate
// enforces it). Nor is h: L_out(h) has no run of h, so the tuples of h that a
// commit is appending to L_in(w) are passed over.
//
// hotpath — allocheck root: once per candidate journey of every search.
func (b *builder) coveredForward(w timetable.StopID, d, a timetable.Time, from int) bool {
	lin := b.c.in.tuples[w]
	b.stats.CoverChecks++
	for _, r := range b.c.in.runs[w][from:] {
		o := b.ownRun[r.hub]
		if o.hi == o.lo {
			continue
		}
		b.stats.RunsProbed++
		if viaHub(b.own[o.lo:o.hi], lin[r.lo:r.hi], d, a) {
			return true
		}
	}
	return false
}

// coveredBackward is coveredForward for a journey w -> h: the own label is
// L_in(h) and the first leg comes from the runs of L_out(w).
//
// hotpath — allocheck root: once per candidate journey of every search.
func (b *builder) coveredBackward(w timetable.StopID, d, a timetable.Time, from int) bool {
	lout := b.c.out.tuples[w]
	b.stats.CoverChecks++
	for _, r := range b.c.out.runs[w][from:] {
		o := b.ownRun[r.hub]
		if o.hi == o.lo {
			continue
		}
		b.stats.RunsProbed++
		if viaHub(lout[r.lo:r.hi], b.own[o.lo:o.hi], d, a) {
			return true
		}
	}
	return false
}
