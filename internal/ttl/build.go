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
// directories over them.
type construction struct {
	l       *Labels
	in, out half
}

func newConstruction(tt *timetable.Timetable, ord order.Order) *construction {
	n := tt.NumStops()
	l := &Labels{
		In:    make([][]Tuple, n),
		Out:   make([][]Tuple, n),
		Ranks: ord.Ranks(),
	}
	return &construction{
		l:   l,
		in:  half{tuples: l.In, runs: make([][]hubRun, n)},
		out: half{tuples: l.Out, runs: make([][]hubRun, n)},
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
	b := &builder{
		tt:     tt,
		c:      c,
		ranks:  c.l.Ranks,
		prof:   make([][]profEntry, tt.NumStops()),
		meta:   make([][]profMeta, tt.NumStops()),
		pos:    make([]int32, tt.NumStops()),
		ownRun: make([]hubRun, tt.NumStops()),
	}
	for i := range b.pos {
		b.pos[i] = unreached
	}
	return b
}

// Stream position sentinels (regular positions are >= 0).
const (
	unreached int32 = -1 // stop has no profile entry yet
	exhausted int32 = -2 // stream consumed its whole connection list
)

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
// smallest metadata, so the recorded witness does not depend on the order
// candidates were generated in — wave searches prune against fewer labels
// than the serial build and therefore explore extra (covered) paths, and
// without the canonical choice the surviving tuples' pivot/trip columns could
// differ between worker counts.
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

// builder carries the scratch state shared by the per-hub searches.
type builder struct {
	tt    *timetable.Timetable
	c     *construction
	ranks []int32

	// prof[w] is the Pareto profile of the current search at stop w, with
	// meta[w] parallel; pos[w] is the stream position into the stop's
	// connection list. touched lists stops to reset after the search.
	prof    [][]profEntry
	meta    [][]profMeta
	pos     []int32
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

	pq streamHeap
}

// forward runs the pruned forward profile search from hub h, collecting a
// tentative tuple ⟨h, d, a⟩ for L_in(w) in b.pend for every Pareto journey
// h -> w not covered by the labels committed so far. Connections are
// processed in increasing departure order; strictly positive durations
// guarantee that when a connection departing at time t is processed, every
// journey arriving at its departure stop by t is already in the profile.
func (b *builder) forward(h timetable.StopID) {
	tt, rankH := b.tt, b.ranks[h]
	b.indexOwn(&b.c.out, h, 0)
	b.pq = b.pq[:0]
	b.pend = b.pend[:0]

	// The hub's own stream covers the whole day: one may start from h at any
	// time.
	b.openForwardStream(h, 0)

	for len(b.pq) > 0 {
		it := b.pop()
		u := it.stop
		if it.pos != b.pos[u] {
			continue // stale: the stream was rewound or advanced
		}
		out := tt.Outgoing(u)
		c := tt.Connection(out[it.pos])
		// Advance the stream before relaxing so that a rewind triggered by
		// the relaxation itself is not clobbered.
		if int(it.pos)+1 < len(out) {
			b.pos[u] = it.pos + 1
			b.push(streamItem{key: int64(tt.Connection(out[it.pos+1]).Dep), stop: u, pos: it.pos + 1})
		} else {
			b.pos[u] = exhausted
		}

		// Best (latest) departure from h that reaches u by c.Dep.
		var cand profEntry
		var m profMeta
		if u == h {
			cand = profEntry{d: c.Dep, a: c.Arr}
			m = profMeta{pivot: timetable.NoStop, first: c.Trip, last: c.Trip}
		} else {
			i := lastArrAtMost(b.prof[u], c.Dep)
			if i < 0 {
				continue
			}
			cand = profEntry{d: b.prof[u][i].d, a: c.Arr}
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
		b.insertForward(w, cand, m)
	}
	b.collect(h)
}

// backward runs the pruned backward profile search toward hub h, collecting
// tentative tuples ⟨h, d, a⟩ for L_out(w) in b.pend for every Pareto journey
// w -> h not covered by the labels committed so far. Connections are
// processed in decreasing arrival order over the incoming lists of reached
// stops.
func (b *builder) backward(h timetable.StopID) {
	tt, rankH := b.tt, b.ranks[h]
	b.indexOwn(&b.c.in, h, 0)
	b.pq = b.pq[:0]
	b.pend = b.pend[:0]

	b.openBackwardStream(h, int32(len(tt.Incoming(h)))-1)

	for len(b.pq) > 0 {
		it := b.pop()
		v := it.stop
		if it.pos != b.pos[v] {
			continue
		}
		in := tt.Incoming(v)
		c := tt.Connection(in[it.pos])
		if it.pos > 0 {
			b.pos[v] = it.pos - 1
			b.push(streamItem{key: -int64(tt.Connection(in[it.pos-1]).Arr), stop: v, pos: it.pos - 1})
		} else {
			b.pos[v] = exhausted
		}

		// Best (earliest) arrival at h for journeys leaving v at or after
		// c.Arr.
		var cand profEntry
		var m profMeta
		if v == h {
			cand = profEntry{d: c.Dep, a: c.Arr}
			m = profMeta{pivot: timetable.NoStop, first: c.Trip, last: c.Trip}
		} else {
			i := firstDepAtLeast(b.prof[v], c.Arr)
			if i < 0 {
				continue
			}
			cand = profEntry{d: c.Dep, a: b.prof[v][i].a}
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
		b.insertBackward(w, cand, m)
	}
	b.collect(h)
}

// collect drains the surviving profile entries of hub h's search into b.pend
// (in touch order, each stop's entries sorted by departure) and resets the
// per-search scratch state.
func (b *builder) collect(h timetable.StopID) {
	for _, w := range b.touched {
		for i, e := range b.prof[w] {
			m := b.meta[w][i]
			b.pend = append(b.pend, pendingTuple{w: w, t: Tuple{Hub: h, Dep: e.d, Arr: e.a, Pivot: m.pivot, Trip: m.first}})
		}
		b.prof[w] = b.prof[w][:0]
		b.meta[w] = b.meta[w][:0]
		b.pos[w] = unreached
	}
	b.touched = b.touched[:0]
	b.pos[h] = unreached
	b.releaseOwn()
	b.stats.Searches++
	b.stats.TentativeTuples += int64(len(b.pend))
}

func (b *builder) openForwardStream(u timetable.StopID, pos int32) {
	out := b.tt.Outgoing(u)
	if int(pos) >= len(out) {
		b.pos[u] = exhausted
		return
	}
	b.pos[u] = pos
	b.push(streamItem{key: int64(b.tt.Connection(out[pos]).Dep), stop: u, pos: pos})
}

func (b *builder) openBackwardStream(u timetable.StopID, pos int32) {
	if pos < 0 {
		b.pos[u] = exhausted
		return
	}
	in := b.tt.Incoming(u)
	b.pos[u] = pos
	b.push(streamItem{key: -int64(b.tt.Connection(in[pos]).Arr), stop: u, pos: pos})
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

// insertForward adds e to w's profile, evicting entries e dominates, and
// opens or rewinds w's outgoing stream to cover departures >= e.a.
// Connections between a rewound position and the previous one depart later
// than the current scan clock, so none is processed twice.
func (b *builder) insertForward(w timetable.StopID, e profEntry, m profMeta) {
	b.insert(w, e, m)
	out := b.tt.Outgoing(w)
	start := int32(sort.Search(len(out), func(i int) bool { return b.tt.Connection(out[i]).Dep >= e.a }))
	if int(start) >= len(out) {
		if b.pos[w] == unreached {
			b.pos[w] = exhausted
		}
		return
	}
	if b.pos[w] == unreached || b.pos[w] == exhausted || start < b.pos[w] {
		b.pos[w] = start
		b.push(streamItem{key: int64(b.tt.Connection(out[start]).Dep), stop: w, pos: start})
	}
}

// insertBackward adds e and opens or rewinds w's incoming stream to cover
// arrivals <= e.d (streams run backward in time).
func (b *builder) insertBackward(w timetable.StopID, e profEntry, m profMeta) {
	b.insert(w, e, m)
	in := b.tt.Incoming(w)
	// Last index with arr <= e.d.
	start := int32(sort.Search(len(in), func(i int) bool { return b.tt.Connection(in[i]).Arr > e.d })) - 1
	if start < 0 {
		if b.pos[w] == unreached {
			b.pos[w] = exhausted
		}
		return
	}
	if b.pos[w] == unreached || b.pos[w] == exhausted || start > b.pos[w] {
		b.pos[w] = start
		b.push(streamItem{key: -int64(b.tt.Connection(in[start]).Arr), stop: w, pos: start})
	}
}

// insert performs the Pareto insertion shared by both directions: e replaces
// every entry it dominates (a contiguous run around its departure position).
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

// streamItem is a pending connection-stream head: the connection at index pos
// of stop's outgoing (forward) or incoming (backward) list.
type streamItem struct {
	key  int64 // departure (forward) or negated arrival (backward)
	stop timetable.StopID
	pos  int32
}

// streamHeap is a binary min-heap of stream heads, specialized to avoid
// container/heap interface overhead in the innermost preprocessing loop.
type streamHeap []streamItem

func (b *builder) push(e streamItem) {
	h := b.pq
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].key <= h[i].key {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	b.pq = h
}

func (b *builder) pop() streamItem {
	h := b.pq
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(h) && h[l].key < h[s].key {
			s = l
		}
		if r < len(h) && h[r].key < h[s].key {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	b.pq = h
	return top
}
