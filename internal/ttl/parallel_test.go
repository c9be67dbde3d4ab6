package ttl

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"ptldb/internal/csa"
	"ptldb/internal/order"
	"ptldb/internal/synth"
	"ptldb/internal/timetable"
)

// workerCounts are the BuildWorkers values the determinism tests sweep,
// including a count above GOMAXPROCS and counts that leave the last wave
// ragged.
func workerCounts() []int {
	counts := []int{1, 2, 3, 7}
	if g := runtime.GOMAXPROCS(0); !slices.Contains(counts, g) {
		counts = append(counts, g)
	}
	return counts
}

// synthCity is a small generated city: unlike randomTimetable it has lines,
// trips and a realistic degree distribution.
func synthCity(t testing.TB, scale float64) *timetable.Timetable {
	p, err := synth.ProfileByName("Austin")
	if err != nil {
		t.Fatal(err)
	}
	return synth.Generate(p, synth.Options{Scale: scale, Seed: 1})
}

// TestBuildParallelByteIdentical is the canonicality test of the wave build:
// for every worker count the labels must equal the serial build's exactly —
// not merely cover-equivalent — including the pivot/trip reconstruction
// metadata and the per-stop array order. buildSerial is the independent
// reference: it commits one hub at a time and never re-checks.
func TestBuildParallelByteIdentical(t *testing.T) {
	check := func(name string, tt *timetable.Timetable, ord order.Order) {
		t.Helper()
		want, _ := buildSerial(tt, ord)
		if err := want.Validate(); err != nil {
			t.Fatalf("%s: serial build: %v", name, err)
		}
		for _, workers := range workerCounts() {
			if got := BuildParallel(tt, ord, workers); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: BuildParallel(workers=%d) differs from serial build", name, workers)
			}
		}
	}
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 10; iter++ {
		tt := randomTimetable(rng, 2+rng.Intn(30), rng.Intn(500))
		check(fmt.Sprintf("iter %d", iter), tt, randomOrder(rng, tt, iter))
	}
	// The paper example, where the expected labels are known exactly.
	check("paper example", timetable.PaperExample(), order.Identity(7))
	// A 60-stop city: at 7 workers one wave is a quarter of the network, and
	// no worker count here divides it evenly.
	city := synthCity(t, 0.03)
	check("synth city", city, order.ByNeighborDegree(city))
}

// TestBuildParallelMatchesCSA runs the parallel build on randomized
// timetables and checks EA/LD answers against the Connection Scan oracle —
// the differential guard that the wave commit preserves correctness, not
// just serial equivalence.
func TestBuildParallelMatchesCSA(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for iter := 0; iter < 6; iter++ {
		tt := randomTimetable(rng, 2+rng.Intn(12), rng.Intn(120))
		ord := randomOrder(rng, tt, iter)
		l := BuildParallel(tt, ord, 3)
		if err := l.Validate(); err != nil {
			t.Fatalf("iter %d: Validate: %v", iter, err)
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
			}
		}
	}
}

// TestBuildParallelDegenerate exercises the wave machinery on inputs smaller
// than a batch: an empty timetable and a two-stop network with more workers
// than hubs.
func TestBuildParallelDegenerate(t *testing.T) {
	var b timetable.Builder
	b.AddStops(3)
	empty := b.MustBuild()
	for _, workers := range []int{2, 16} {
		if l := BuildParallel(empty, order.ByDegree(empty), workers); l.NumTuples() != 0 {
			t.Errorf("workers=%d: %d tuples on connection-free timetable", workers, l.NumTuples())
		}
	}

	var b2 timetable.Builder
	b2.AddStops(2)
	b2.AddConnection(0, 1, 100, 200, 1)
	tiny := b2.MustBuild()
	want, _ := buildSerial(tiny, order.ByDegree(tiny))
	for _, workers := range []int{2, 16} {
		if got := BuildParallel(tiny, order.ByDegree(tiny), workers); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: tiny timetable labels differ from serial", workers)
		}
	}

	// workers <= 0 resolves to GOMAXPROCS and must still be exact.
	rng := rand.New(rand.NewSource(9))
	tt := randomTimetable(rng, 12, 160)
	ord := order.ByNeighborDegree(tt)
	want, _ = buildSerial(tt, ord)
	if got := BuildParallel(tt, ord, 0); !reflect.DeepEqual(got, want) {
		t.Error("BuildParallel(workers=0) differs from serial build")
	}
}

// TestBuildStatsAccountForLabels checks the build counters against what they
// count: two searches per hub, and every tentative tuple either cross-pruned
// at commit or in the labels. They are exact, so two builds at one worker
// count agree; the one-hub-a-time serial build has nothing to cross-prune.
func TestBuildStatsAccountForLabels(t *testing.T) {
	tt := synthCity(t, 0.03)
	ord := order.ByNeighborDegree(tt)
	for _, workers := range workerCounts() {
		l, st := BuildWithStats(tt, ord, workers)
		if want := int64(2 * tt.NumStops()); st.Searches != want {
			t.Errorf("workers=%d: %d searches, want %d", workers, st.Searches, want)
		}
		if got := st.TentativeTuples - st.CrossPruned; got != int64(l.NumTuples()) {
			t.Errorf("workers=%d: %d tentative - %d cross-pruned = %d, labels hold %d",
				workers, st.TentativeTuples, st.CrossPruned, got, l.NumTuples())
		}
		if st.CoverChecks == 0 || st.RunsProbed == 0 {
			t.Errorf("workers=%d: cover counters not counting: %+v", workers, st)
		}
		if workers == 1 && st.CrossPruned != 0 {
			t.Errorf("serial build cross-pruned %d tuples", st.CrossPruned)
		}
		if workers == 7 && st.CrossPruned == 0 {
			t.Error("7-worker build cross-pruned nothing: the wave commit went unexercised")
		}
		if _, again := BuildWithStats(tt, ord, workers); again != st {
			t.Errorf("workers=%d: counters differ between two builds: %+v vs %+v", workers, st, again)
		}
	}
}

func BenchmarkBuildParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	tt := randomTimetable(rng, 300, 30000)
	ord := order.ByNeighborDegree(tt)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				BuildParallel(tt, ord, workers)
			}
		})
	}
	// The configuration every default build runs, on a generated city.
	city := synthCity(b, 0.05)
	cityOrd := order.ByNeighborDegree(city)
	b.Run("workers=GOMAXPROCS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			BuildParallel(city, cityOrd, 0)
		}
	})
}
