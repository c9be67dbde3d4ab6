package ttl

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
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
	for iter := 0; iter < 16; iter++ {
		var tt *timetable.Timetable
		if iter < 10 {
			tt = randomTimetable(rng, 2+rng.Intn(30), rng.Intn(500), 86400)
		} else {
			tt = tieTimetable(rng, 2+rng.Intn(8), rng.Intn(200))
		}
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
		tt := randomTimetable(rng, 2+rng.Intn(12), rng.Intn(120), 86400)
		ord := randomOrder(rng, tt, iter)
		l := BuildParallel(tt, ord, 3)
		if err := l.Validate(); err != nil {
			t.Fatalf("iter %d: Validate: %v", iter, err)
		}
		checkEALDMatchCSA(t, fmt.Sprintf("iter %d", iter), tt, l.Augment())
	}
}

// checkEALDMatchCSA requires the EA and LD answers of the augmented labels l
// to equal the Connection Scan oracle's for every stop pair and every
// threshold of thresholds.
func checkEALDMatchCSA(t *testing.T, name string, tt *timetable.Timetable, l *Labels) {
	t.Helper()
	n := timetable.StopID(tt.NumStops())
	for s := timetable.StopID(0); s < n; s++ {
		ths := thresholds(tt, s)
		for g := timetable.StopID(0); g < n; g++ {
			if s == g {
				continue
			}
			for _, th := range ths {
				if got, want := l.EarliestArrival(s, g, th), csa.EarliestArrival(tt, s, g, th); got != want {
					t.Fatalf("%s: EA(%d,%d,%v) = %v, want %v", name, s, g, th, got, want)
				}
				if got, want := l.LatestDeparture(s, g, th), csa.LatestDeparture(tt, s, g, th); got != want {
					t.Fatalf("%s: LD(%d,%d,%v) = %v, want %v", name, s, g, th, got, want)
				}
			}
		}
	}
}

// FuzzBuildMatchesCSA builds the labels of a tie-heavy timetable decoded from
// the input and requires them valid, equal at 1 and 3 workers, and answering
// EA and LD as the Connection Scan oracle does. data[0] picks the stop count
// (2 to 8) and the order; every further 4 bytes are one connection, at most
// 64: from, to, a departure in [0, 20) with a ride of 1 to 3 s, and one of 8
// trips.
func FuzzBuildMatchesCSA(f *testing.F) {
	// A chain 0 -> 1 -> 2 ridden at equal times on two trips each.
	f.Add([]byte{1, 0, 1, 5, 0, 0, 1, 5, 1, 1, 2, 26, 0, 1, 2, 26, 2})
	for seed := int64(0); seed < 3; seed++ {
		data := make([]byte, 1+4*64)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 2 + int(data[0]%7)
		var b timetable.Builder
		b.AddStops(n)
		conns := data[1:min(len(data), 1+4*64)]
		for i := 0; i+4 <= len(conns); i += 4 {
			from, to := timetable.StopID(int(conns[i])%n), timetable.StopID(int(conns[i+1])%n)
			if from == to {
				to = (to + 1) % timetable.StopID(n)
			}
			dep := timetable.Time(conns[i+2] % 20)
			b.AddConnection(from, to, dep, dep+1+timetable.Time(conns[i+2]/20%3), timetable.TripID(conns[i+3]%8))
		}
		tt := b.MustBuild()
		var ord order.Order
		switch data[0] / 7 % 3 {
		case 0:
			ord = order.ByDegree(tt)
		case 1:
			ord = order.ByNeighborDegree(tt)
		default:
			ord = order.Random(n, int64(data[0]))
		}
		l := BuildParallel(tt, ord, 1)
		if err := l.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		if l3 := BuildParallel(tt, ord, 3); !reflect.DeepEqual(l3, l) {
			t.Fatal("labels differ between 1 and 3 workers")
		}
		checkEALDMatchCSA(t, "fuzz", tt, l.Augment())
	})
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
	tt := randomTimetable(rng, 12, 160, 86400)
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

// labelDigest is an FNV-1a digest of every label, In then Out, stop by stop:
// each label's length, then each tuple's five fields.
func labelDigest(l *Labels) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put := func(x int32) {
		binary.LittleEndian.PutUint32(buf[:], uint32(x))
		h.Write(buf[:])
	}
	for _, side := range [2][][]Tuple{l.In, l.Out} {
		for _, label := range side {
			put(int32(len(label)))
			for _, t := range label {
				put(int32(t.Hub))
				put(int32(t.Dep))
				put(int32(t.Arr))
				put(int32(t.Pivot))
				put(int32(t.Trip))
			}
		}
	}
	return h.Sum64()
}

// TestBuildLabelsPinned pins the labels of one generated city across
// commits: the determinism tests compare a build with itself, so a change
// that altered every label the same way would pass them. The digest covers
// the pivot and trip metadata too. A change that means to alter the labels
// updates both numbers and says why.
func TestBuildLabelsPinned(t *testing.T) {
	const (
		wantTuples = 45585
		wantDigest = 0x8f8087fd502e296a
	)
	city := synthCity(t, 0.03)
	ord := order.ByNeighborDegree(city)
	for _, workers := range []int{1, 3} {
		l := BuildParallel(city, ord, workers)
		if n := l.NumTuples(); n != wantTuples {
			t.Errorf("workers=%d: %d tuples, want %d", workers, n, wantTuples)
		}
		if d := labelDigest(l); d != wantDigest {
			t.Errorf("workers=%d: label digest %#x, want %#x", workers, d, uint64(wantDigest))
		}
	}
}

func BenchmarkBuildParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	tt := randomTimetable(rng, 300, 30000, 86400)
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
