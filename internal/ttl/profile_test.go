package ttl

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ptldb/internal/order"
	"ptldb/internal/timetable"
)

// refProfile is a brute-force Pareto set for cross-checking the builder's
// incremental profile maintenance.
type refProfile []profEntry

func (p refProfile) dominated(e profEntry) bool {
	for _, q := range p {
		if q.d >= e.d && q.a <= e.a {
			return true
		}
	}
	return false
}

func (p refProfile) insert(e profEntry) refProfile {
	if p.dominated(e) {
		return p
	}
	out := p[:0]
	for _, q := range p {
		if e.d >= q.d && e.a <= q.a {
			continue
		}
		out = append(out, q)
	}
	out = append(out, e)
	sort.Slice(out, func(i, j int) bool { return out[i].d < out[j].d })
	return out
}

// TestProfileInsertMatchesBruteForce drives the builder's insert (and its
// binary-search helpers) against the brute-force reference on random
// insertion sequences.
func TestProfileInsertMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := &builder{
			prof: make([][]profEntry, 1),
			meta: make([][]profMeta, 1),
		}
		var ref refProfile
		for i := 0; i < 60; i++ {
			e := profEntry{
				d: timetable.Time(rng.Intn(40)),
				a: timetable.Time(40 + rng.Intn(40)),
			}
			ref = ref.insert(e)
			// The builder only inserts non-dominated entries (dominance is
			// checked by the caller), so mirror that contract: dominated iff
			// the last entry arriving <= e.a departs >= e.d.
			if j := lastArrAtMost(b.prof[0], e.a); j < 0 || b.prof[0][j].d < e.d {
				b.insert(0, e, profMeta{})
			}
			got := b.prof[0]
			if len(got) != len(ref) {
				return false
			}
			for j := range got {
				if got[j] != ref[j] {
					return false
				}
			}
			// Invariant: sorted and an antichain on both coordinates.
			for j := 1; j < len(got); j++ {
				if got[j-1].d >= got[j].d || got[j-1].a >= got[j].a {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestProfileSearchHelpers checks lastArrAtMost / firstDepAtLeast against
// linear scans on random sorted profiles.
func TestProfileSearchHelpers(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var p []profEntry
		d, a := timetable.Time(0), timetable.Time(0)
		for i := 0; i < rng.Intn(30); i++ {
			d += timetable.Time(1 + rng.Intn(5))
			a += timetable.Time(1 + rng.Intn(5))
			p = append(p, profEntry{d: d, a: a})
		}
		for trial := 0; trial < 20; trial++ {
			t0 := timetable.Time(rng.Intn(200))
			// lastArrAtMost: last index with a <= t0.
			want := -1
			for i := range p {
				if p[i].a <= t0 {
					want = i
				}
			}
			if got := lastArrAtMost(p, t0); got != want {
				return false
			}
			// firstDepAtLeast: first index with d >= t0.
			want = -1
			for i := range p {
				if p[i].d >= t0 {
					want = i
					break
				}
			}
			if got := firstDepAtLeast(p, t0); got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestSplice checks the generic slice surgery used by profile insertion.
func TestSplice(t *testing.T) {
	base := func() []int { return []int{1, 2, 3, 4, 5} }
	cases := []struct {
		lo, hi int
		want   []int
	}{
		{0, 0, []int{9, 1, 2, 3, 4, 5}}, // pure insert at head
		{5, 5, []int{1, 2, 3, 4, 5, 9}}, // pure insert at tail
		{2, 2, []int{1, 2, 9, 3, 4, 5}}, // insert mid
		{1, 2, []int{1, 9, 3, 4, 5}},    // replace one
		{1, 4, []int{1, 9, 5}},          // replace run
		{0, 5, []int{9}},                // replace all
	}
	for _, c := range cases {
		got := splice(base(), c.lo, c.hi, 9)
		if len(got) != len(c.want) {
			t.Fatalf("splice(%d,%d) = %v, want %v", c.lo, c.hi, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("splice(%d,%d) = %v, want %v", c.lo, c.hi, got, c.want)
			}
		}
	}
}

// randomConstruction fills a construction over n stops ranked by ID with
// random labels of the shape the build produces: every label holds runs of
// some of the hubs that outrank its stop, in rank order, each run an
// antichain ascending in departure and arrival.
func randomConstruction(rng *rand.Rand, tt *timetable.Timetable) *construction {
	n := tt.NumStops()
	c := newConstruction(tt, order.Identity(n))
	for v := 1; v < n; v++ {
		for _, s := range [2]*half{&c.in, &c.out} {
			for hub := 0; hub < v; hub++ {
				if rng.Intn(3) == 0 {
					continue
				}
				d, a := timetable.Time(rng.Intn(10)), timetable.Time(10+rng.Intn(10))
				for k := rng.Intn(6); k > 0; k-- {
					s.add(timetable.StopID(v), Tuple{Hub: timetable.StopID(hub), Dep: d, Arr: a})
					d += timetable.Time(1 + rng.Intn(12))
					a = max(a, d) + timetable.Time(1+rng.Intn(12))
				}
			}
		}
	}
	return c
}

// coveredBruteForce is the cover condition by its definition: some tuple x of
// first and some tuple y of second share a hub of rank >= rankLo and chain
// into a journey departing >= d and arriving <= a.
func coveredBruteForce(first, second []Tuple, rankLo int, d, a timetable.Time) bool {
	for _, x := range first {
		for _, y := range second {
			if x.Hub == y.Hub && int(x.Hub) >= rankLo && x.Dep >= d && x.Arr <= y.Dep && y.Arr <= a {
				return true
			}
		}
	}
	return false
}

// TestCoverChecksMatchBruteForce compares the directory-walking, first-match
// cover checks with the all-pairs definition on random labels: every hub h,
// every stop w it outranks, a grid of (d, a) — over the whole directories, as
// a search asks, and over the runs of rank >= rankLo only, as a commit
// re-check of a wave starting at rankLo asks.
func TestCoverChecksMatchBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		var tb timetable.Builder
		tb.AddStops(n)
		tt := tb.MustBuild()
		c := randomConstruction(rng, tt)
		if err := c.l.Validate(); err != nil {
			t.Logf("seed %d: random labels invalid: %v", seed, err)
			return false
		}
		b := newBuilder(tt, c)
		for h := timetable.StopID(0); int(h) < n; h++ {
			for _, rankLo := range []int{0, int(h) / 2, int(h)} {
				for _, forward := range []bool{true, false} {
					own, target := &c.out, &c.in
					if !forward {
						own, target = &c.in, &c.out
					}
					b.indexOwn(own, h, b.waveTail(own.runs[h], int32(rankLo)))
					for w := h + 1; int(w) < n; w++ {
						from := b.waveTail(target.runs[w], int32(rankLo))
						for d := timetable.Time(0); d < 80; d += 3 {
							for a := d; a < 90; a += 3 {
								var got, want bool
								if forward {
									got = b.coveredForward(w, d, a, from)
									want = coveredBruteForce(c.l.Out[h], c.l.In[w], rankLo, d, a)
								} else {
									got = b.coveredBackward(w, d, a, from)
									want = coveredBruteForce(c.l.Out[w], c.l.In[h], rankLo, d, a)
								}
								if got != want {
									t.Logf("seed %d: forward=%v h=%d w=%d rankLo=%d d=%d a=%d: got %v, want %v",
										seed, forward, h, w, rankLo, d, a, got, want)
									return false
								}
							}
						}
					}
					b.releaseOwn()
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
