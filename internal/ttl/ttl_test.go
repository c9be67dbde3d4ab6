package ttl

import (
	"math/rand"
	"reflect"
	"testing"

	"ptldb/internal/csa"
	"ptldb/internal/order"
	"ptldb/internal/timetable"
)

// tup abbreviates hub/dep/arr triples (times in the paper's 100 s units) for
// comparison against Table 1 of the paper.
type tup struct {
	hub      timetable.StopID
	dep, arr timetable.Time
}

func project(ts []Tuple) []tup {
	out := make([]tup, 0, len(ts))
	for _, t := range ts {
		out = append(out, tup{t.Hub, t.Dep / 100, t.Arr / 100})
	}
	return out
}

func buildPaperLabels(t *testing.T) *Labels {
	t.Helper()
	tt := timetable.PaperExample()
	l := Build(tt, order.Identity(7))
	if err := l.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return l
}

// TestBuildMatchesPaperTable1 compares the constructed labels with the
// non-dummy rows of Table 1 of the paper.
func TestBuildMatchesPaperTable1(t *testing.T) {
	l := buildPaperLabels(t)
	wantOut := [][]tup{
		0: {},
		1: {{0, 324, 360}},
		2: {{0, 324, 360}},
		3: {{0, 324, 360}},
		4: {{0, 324, 360}},
		5: {{0, 288, 360}, {1, 288, 324}},
		6: {{0, 288, 360}, {2, 288, 324}},
	}
	wantIn := [][]tup{
		0: {},
		1: {{0, 360, 396}},
		2: {{0, 360, 396}},
		3: {{0, 360, 396}},
		4: {{0, 360, 396}},
		5: {{0, 360, 432}, {1, 396, 432}},
		6: {{0, 360, 432}, {2, 396, 432}},
	}
	for v := 0; v < 7; v++ {
		if got := project(l.Out[v]); !reflect.DeepEqual(got, wantOut[v]) {
			t.Errorf("L_out(%d) = %v, want %v", v, got, wantOut[v])
		}
		if got := project(l.In[v]); !reflect.DeepEqual(got, wantIn[v]) {
			t.Errorf("L_in(%d) = %v, want %v", v, got, wantIn[v])
		}
	}
}

// TestAugmentMatchesPaperTable1 checks the dummy tuples (bold rows of
// Table 1).
func TestAugmentMatchesPaperTable1(t *testing.T) {
	l := buildPaperLabels(t).Augment()
	if err := l.Validate(); err != nil {
		t.Fatalf("Validate after Augment: %v", err)
	}
	wantOut := [][]tup{
		0: {{0, 360, 360}},
		1: {{0, 324, 360}, {1, 324, 324}, {1, 396, 396}},
		2: {{0, 324, 360}, {2, 324, 324}, {2, 396, 396}},
		3: {{0, 324, 360}, {3, 396, 396}},
		4: {{0, 324, 360}, {4, 396, 396}},
		5: {{0, 288, 360}, {1, 288, 324}, {5, 432, 432}},
		6: {{0, 288, 360}, {2, 288, 324}, {6, 432, 432}},
	}
	wantIn := [][]tup{
		0: {{0, 360, 360}},
		1: {{0, 360, 396}, {1, 324, 324}, {1, 396, 396}},
		2: {{0, 360, 396}, {2, 324, 324}, {2, 396, 396}},
		3: {{0, 360, 396}, {3, 396, 396}},
		4: {{0, 360, 396}, {4, 396, 396}},
		5: {{0, 360, 432}, {1, 396, 432}, {5, 432, 432}},
		6: {{0, 360, 432}, {2, 396, 432}, {6, 432, 432}},
	}
	for v := 0; v < 7; v++ {
		if got := project(l.Out[v]); !reflect.DeepEqual(got, wantOut[v]) {
			t.Errorf("augmented L_out(%d) = %v, want %v", v, got, wantOut[v])
		}
		if got := project(l.In[v]); !reflect.DeepEqual(got, wantIn[v]) {
			t.Errorf("augmented L_in(%d) = %v, want %v", v, got, wantIn[v])
		}
	}
	// Idempotence.
	before := l.NumTuples()
	if l.Augment(); l.NumTuples() != before {
		t.Errorf("Augment not idempotent: %d -> %d tuples", before, l.NumTuples())
	}
}

// TestPaperEAQuery reproduces the worked query of Section 3.1:
// EA(1, 1, 324) = 324 through the single join. Every other self-query is
// pinned against the store by core's TestSelfQueriesMatchStore.
func TestPaperEAQuery(t *testing.T) {
	l := buildPaperLabels(t).Augment()
	if got := l.EarliestArrival(1, 1, 32400); got != 32400 {
		t.Errorf("EA(1,1,324) = %v, want 324*100", got)
	}
}

// randomTimetable draws conns connections between random stops on 60 trips,
// departing in [0, span) and riding 1 to max(span/16, 3) seconds. Over a day
// (span 86400) equal times are rare.
func randomTimetable(rng *rand.Rand, stops, conns int, span timetable.Time) *timetable.Timetable {
	var b timetable.Builder
	b.AddStops(stops)
	maxDur := max(int(span)/16, 3)
	for i := 0; i < conns; i++ {
		from := timetable.StopID(rng.Intn(stops))
		to := timetable.StopID(rng.Intn(stops))
		if from == to {
			to = (to + 1) % timetable.StopID(stops)
		}
		dep := timetable.Time(rng.Intn(int(span)))
		b.AddConnection(from, to, dep, dep+1+timetable.Time(rng.Intn(maxDur)), timetable.TripID(rng.Intn(60)))
	}
	return b.MustBuild()
}

// tieTimetable is a tie-heavy randomTimetable: departures within 20 s, rides
// of 1 to 3 s, and about a quarter of the connections repeated on another
// trip. Equal-time connections abound, and equal journeys with different
// metadata meet, so the build's tie rule (metaLess) decides.
func tieTimetable(rng *rand.Rand, stops, conns int) *timetable.Timetable {
	var b timetable.Builder
	b.AddStops(stops)
	for _, c := range randomTimetable(rng, stops, conns, 20).Connections() {
		b.AddConnection(c.From, c.To, c.Dep, c.Arr, c.Trip)
		if rng.Intn(4) == 0 {
			b.AddConnection(c.From, c.To, c.Dep, c.Arr, (c.Trip+1+timetable.TripID(rng.Intn(59)))%60)
		}
	}
	return b.MustBuild()
}

func randomOrder(rng *rand.Rand, tt *timetable.Timetable, iter int) order.Order {
	switch iter % 3 {
	case 0:
		return order.ByDegree(tt)
	case 1:
		return order.ByNeighborDegree(tt)
	default:
		return order.Random(tt.NumStops(), rng.Int63())
	}
}

// thresholds returns query timestamps exercising each breakpoint of the s->g
// profile plus the extremes.
func thresholds(tt *timetable.Timetable, s timetable.StopID) []timetable.Time {
	ts := []timetable.Time{0, tt.MaxTime() + 1}
	for _, ci := range tt.Outgoing(s) {
		d := tt.Connection(ci).Dep
		ts = append(ts, d-1, d, d+1)
	}
	return ts
}

// TestLabelsMatchCSA is the main correctness property: on random timetables
// and orders, every EA/LD/SD label query matches the Connection Scan oracle
// for every stop pair and profile breakpoint. This machine-checks the cover
// property of Build and Theorem 3.1.1: a dummy tuple has hub = its own stop
// and zero duration, so it creates no journey, and the single join over the
// augmented labels can equal the oracle only if the raw labels cover every
// journey. The last six timetables are tie-heavy.
func TestLabelsMatchCSA(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 18; iter++ {
		var tt *timetable.Timetable
		if iter < 12 {
			tt = randomTimetable(rng, 2+rng.Intn(14), rng.Intn(130), 86400)
		} else {
			tt = tieTimetable(rng, 2+rng.Intn(8), rng.Intn(130))
		}
		ord := randomOrder(rng, tt, iter)
		l := Build(tt, ord)
		if err := l.Validate(); err != nil {
			t.Fatalf("iter %d: Validate: %v", iter, err)
		}
		l.Augment()
		if err := l.Validate(); err != nil {
			t.Fatalf("iter %d: Validate augmented: %v", iter, err)
		}
		n := timetable.StopID(tt.NumStops())
		for s := timetable.StopID(0); s < n; s++ {
			ths := thresholds(tt, s)
			for g := timetable.StopID(0); g < n; g++ {
				if s == g {
					continue
				}
				for _, th := range ths {
					if got, want := l.EarliestArrival(s, g, th), csa.EarliestArrival(tt, s, g, th); got != want {
						t.Fatalf("iter %d: EA(%d,%d,%v) = %v, want %v", iter, s, g, th, got, want)
					}
					if got, want := l.LatestDeparture(s, g, th), csa.LatestDeparture(tt, s, g, th); got != want {
						t.Fatalf("iter %d: LD(%d,%d,%v) = %v, want %v", iter, s, g, th, got, want)
					}
				}
				// SD over a few windows.
				for i := 0; i+1 < len(ths); i += 2 {
					t0, t1 := ths[i], ths[len(ths)-1-i]
					if t0 > t1 {
						t0, t1 = t1, t0
					}
					if got, want := l.ShortestDuration(s, g, t0, t1), csa.ShortestDuration(tt, s, g, t0, t1); got != want {
						t.Fatalf("iter %d: SD(%d,%d,%v,%v) = %v, want %v", iter, s, g, t0, t1, got, want)
					}
				}
			}
		}
	}
}

// TestDummyFraction checks the paper's claim that dummy tuples are a small
// fraction of all tuples on a realistic (non-degenerate) instance.
func TestDummyFraction(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tt := randomTimetable(rng, 40, 2000, 86400)
	l := Build(tt, order.ByDegree(tt)).Augment()
	frac := float64(l.NumDummies()) / float64(l.NumTuples())
	if frac <= 0 || frac >= 0.5 {
		t.Errorf("dummy fraction = %.3f, want in (0, 0.5)", frac)
	}
}

func TestStatsAccessors(t *testing.T) {
	l := buildPaperLabels(t)
	if l.NumStops() != 7 {
		t.Errorf("NumStops = %d", l.NumStops())
	}
	// 16 real tuples per Table 1 (8 out + 8 in).
	if l.NumTuples() != 16 {
		t.Errorf("NumTuples = %d, want 16", l.NumTuples())
	}
	if l.NumDummies() != 0 {
		t.Errorf("NumDummies = %d before Augment", l.NumDummies())
	}
	if l.TuplesPerStop() != 16/7 {
		t.Errorf("TuplesPerStop = %d", l.TuplesPerStop())
	}
	l.Augment()
	if l.NumDummies() != 18 { // 9 dummy timestamps, each in both labels
		t.Errorf("NumDummies = %d after Augment, want 18", l.NumDummies())
	}
}

// TestValidateRejectsBrokenRun checks the antichain invariant the build's
// first-match cover checks rely on: within one hub's run a tuple may neither
// repeat a departure nor arrive no later than its predecessor.
func TestValidateRejectsBrokenRun(t *testing.T) {
	for _, second := range []Tuple{
		{Hub: 0, Dep: 100, Arr: 300}, // same departure
		{Hub: 0, Dep: 150, Arr: 200}, // dominates its predecessor
		{Hub: 0, Dep: 90, Arr: 150},  // out of order
	} {
		l := &Labels{
			In:    [][]Tuple{nil, nil},
			Out:   [][]Tuple{nil, {{Hub: 0, Dep: 100, Arr: 200}, second}},
			Ranks: []int32{0, 1},
		}
		if err := l.Validate(); err == nil {
			t.Errorf("Validate accepted run ending in %+v", second)
		}
	}
}

// TestPivotAndTrip spot-checks the reconstruction metadata on the paper
// example: the journey 5 -> 0 rides trip 1 only (no transfer), while
// 0 -> 6 requires staying on trip 1 (no transfer either, boarding at 0).
func TestPivotAndTrip(t *testing.T) {
	l := buildPaperLabels(t)
	var t50 *Tuple
	for i := range l.Out[5] {
		if l.Out[5][i].Hub == 0 {
			t50 = &l.Out[5][i]
		}
	}
	if t50 == nil {
		t.Fatal("no 5->0 tuple")
	}
	if t50.Trip != 1 || t50.Pivot != timetable.NoStop {
		t.Errorf("5->0 tuple metadata = trip %d pivot %d, want trip 1, no pivot", t50.Trip, t50.Pivot)
	}
}

// TestBuildDeterminism ensures Build is reproducible for a fixed order.
func TestBuildDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tt := randomTimetable(rng, 20, 300, 86400)
	ord := order.ByDegree(tt)
	a, b := Build(tt, ord), Build(tt, ord)
	if !reflect.DeepEqual(a.In, b.In) || !reflect.DeepEqual(a.Out, b.Out) {
		t.Error("Build not deterministic")
	}
}

func TestEmptyTimetable(t *testing.T) {
	var b timetable.Builder
	b.AddStops(3)
	tt := b.MustBuild()
	l := Build(tt, order.ByDegree(tt))
	if l.NumTuples() != 0 {
		t.Errorf("labels on connection-free timetable: %d tuples", l.NumTuples())
	}
	l.Augment()
	if l.NumTuples() != 0 {
		t.Errorf("dummies on connection-free timetable: %d tuples", l.NumTuples())
	}
	if got := l.EarliestArrival(0, 1, 0); got != timetable.Infinity {
		t.Errorf("EA on empty = %v", got)
	}
	if got := l.LatestDeparture(0, 1, 86400); got != timetable.NegInfinity {
		t.Errorf("LD on empty = %v", got)
	}
}
