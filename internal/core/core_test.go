package core

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"ptldb/internal/csa"
	"ptldb/internal/order"
	"ptldb/internal/sqldb"
	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/sqldb/storage"
	"ptldb/internal/timetable"
	"ptldb/internal/ttl"
)

func newStore(t *testing.T, tt *timetable.Timetable, ord order.Order, opts BuildOptions) (*Store, *ttl.Labels) {
	t.Helper()
	labels := ttl.Build(tt, ord).Augment()
	db, err := sqldb.Open(t.TempDir(), sqldb.Options{Device: storage.RAM, PoolPages: 4096})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	st, err := Build(db, labels, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st, labels
}

func paperStore(t *testing.T) (*Store, *ttl.Labels) {
	return newStore(t, timetable.PaperExample(), order.Identity(7), BuildOptions{})
}

func randomTimetable(rng *rand.Rand, stops, conns int) *timetable.Timetable {
	var b timetable.Builder
	b.AddStops(stops)
	for i := 0; i < conns; i++ {
		from := timetable.StopID(rng.Intn(stops))
		to := timetable.StopID(rng.Intn(stops))
		if from == to {
			to = (to + 1) % timetable.StopID(stops)
		}
		dep := timetable.Time(rng.Intn(86400))
		b.AddConnection(from, to, dep, dep+1+timetable.Time(rng.Intn(5400)), timetable.TripID(rng.Intn(60)))
	}
	return b.MustBuild()
}

func TestV2VPaperExample(t *testing.T) {
	st, _ := paperStore(t)
	tt := timetable.PaperExample()

	// The paper's worked example: EA(1, 1, 324) = 324.
	arr, ok, err := st.EarliestArrival(1, 1, 32400)
	if err != nil || !ok || arr != 32400 {
		t.Errorf("EA(1,1,324) = %v, %v, %v; want 32400", arr, ok, err)
	}

	for s := timetable.StopID(0); s < 7; s++ {
		for g := timetable.StopID(0); g < 7; g++ {
			if s == g {
				continue
			}
			for _, tq := range []timetable.Time{0, 30000, 33000, 36600, 43200} {
				want := csa.EarliestArrival(tt, s, g, tq)
				got, ok, err := st.EarliestArrival(s, g, tq)
				if err != nil {
					t.Fatal(err)
				}
				if ok != (want < timetable.Infinity) || (ok && got != want) {
					t.Errorf("EA(%d,%d,%v) = %v,%v want %v", s, g, tq, got, ok, want)
				}
				wantLD := csa.LatestDeparture(tt, s, g, tq)
				gotLD, okLD, err := st.LatestDeparture(s, g, tq)
				if err != nil {
					t.Fatal(err)
				}
				if okLD != (wantLD > timetable.NegInfinity) || (okLD && gotLD != wantLD) {
					t.Errorf("LD(%d,%d,%v) = %v,%v want %v", s, g, tq, gotLD, okLD, wantLD)
				}
				wantSD := csa.ShortestDuration(tt, s, g, 0, tq)
				gotSD, okSD, err := st.ShortestDuration(s, g, 0, tq)
				if err != nil {
					t.Fatal(err)
				}
				if okSD != (wantSD < timetable.Infinity) || (okSD && gotSD != wantSD) {
					t.Errorf("SD(%d,%d,0,%v) = %v,%v want %v", s, g, tq, gotSD, okSD, wantSD)
				}
			}
		}
	}
}

// TestSelfQueriesMatchStore pins the s == g convention of the single join:
// the in-memory label queries answer what the store answers, EA(s, s, t)
// being the earliest dummy time >= t at s (the paper's EA(1, 1, 324) = 324).
// Every stop of the paper example and of three random timetables is queried
// at each of its dummy times ± 1 and at both ends of the timetable; SD at
// three window ends.
func TestSelfQueriesMatchStore(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	tts := []*timetable.Timetable{timetable.PaperExample()}
	for i := 0; i < 3; i++ {
		tts = append(tts, randomTimetable(rng, 6+rng.Intn(6), 60+rng.Intn(60)))
	}
	for i, tt := range tts {
		st, labels := newStore(t, tt, order.ByDegree(tt), BuildOptions{})
		for s := timetable.StopID(0); s < timetable.StopID(tt.NumStops()); s++ {
			ths := []timetable.Time{tt.MinTime(), tt.MaxTime()}
			for _, x := range labels.Out[s] {
				if x.IsDummy() {
					ths = append(ths, x.Dep-1, x.Dep, x.Dep+1)
				}
			}
			for _, th := range ths {
				got, ok, err := st.EarliestArrival(s, s, th)
				if want := labels.EarliestArrival(s, s, th); err != nil || ok != (want < timetable.Infinity) || (ok && got != want) {
					t.Fatalf("timetable %d: EA(%d,%d,%v) = %v,%v,%v; labels %v", i, s, s, th, got, ok, err, want)
				}
				got, ok, err = st.LatestDeparture(s, s, th)
				if want := labels.LatestDeparture(s, s, th); err != nil || ok != (want > timetable.NegInfinity) || (ok && got != want) {
					t.Fatalf("timetable %d: LD(%d,%d,%v) = %v,%v,%v; labels %v", i, s, s, th, got, ok, err, want)
				}
				for _, end := range []timetable.Time{th, th + 3600, tt.MaxTime() + 1} {
					got, ok, err = st.ShortestDuration(s, s, th, end)
					if want := labels.ShortestDuration(s, s, th, end); err != nil || ok != (want < timetable.Infinity) || (ok && got != want) {
						t.Fatalf("timetable %d: SD(%d,%d,%v,%v) = %v,%v,%v; labels %v", i, s, s, th, end, got, ok, err, want)
					}
				}
			}
		}
	}
}

// TestV2VRandom is the main end-to-end property: the SQL answers equal the
// CSA oracle on random timetables.
func TestV2VRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 3; iter++ {
		tt := randomTimetable(rng, 12+rng.Intn(10), 150+rng.Intn(150))
		st, _ := newStore(t, tt, order.ByDegree(tt), BuildOptions{})
		n := timetable.StopID(tt.NumStops())
		for trial := 0; trial < 120; trial++ {
			s := timetable.StopID(rng.Intn(int(n)))
			g := timetable.StopID(rng.Intn(int(n)))
			if s == g {
				continue
			}
			tq := timetable.Time(rng.Intn(90000))
			want := csa.EarliestArrival(tt, s, g, tq)
			got, ok, err := st.EarliestArrival(s, g, tq)
			if err != nil {
				t.Fatal(err)
			}
			if ok != (want < timetable.Infinity) || (ok && got != want) {
				t.Fatalf("iter %d: EA(%d,%d,%v) = %v,%v want %v", iter, s, g, tq, got, ok, want)
			}
			wantLD := csa.LatestDeparture(tt, s, g, tq)
			gotLD, okLD, err := st.LatestDeparture(s, g, tq)
			if err != nil {
				t.Fatal(err)
			}
			if okLD != (wantLD > timetable.NegInfinity) || (okLD && gotLD != wantLD) {
				t.Fatalf("iter %d: LD(%d,%d,%v) = %v,%v want %v", iter, s, g, tq, gotLD, okLD, wantLD)
			}
			t0 := timetable.Time(rng.Intn(40000))
			wantSD := csa.ShortestDuration(tt, s, g, t0, tq)
			gotSD, okSD, err := st.ShortestDuration(s, g, t0, tq)
			if err != nil {
				t.Fatal(err)
			}
			if okSD != (wantSD < timetable.Infinity) || (okSD && gotSD != wantSD) {
				t.Fatalf("iter %d: SD(%d,%d,%v,%v) = %v,%v want %v", iter, s, g, t0, tq, gotSD, okSD, wantSD)
			}
		}
	}
}

// oracleKNNEA ranks targets by the labels' single-join EA value (which
// matches PTLDB semantics for target == q as well) and returns the top k.
func oracleKNNEA(labels *ttl.Labels, q timetable.StopID, targets []timetable.StopID, tq timetable.Time, k int) []Result {
	var out []Result
	for _, w := range targets {
		if a := labels.EarliestArrival(q, w, tq); a < timetable.Infinity {
			out = append(out, Result{Stop: w, When: a})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].When != out[j].When {
			return out[i].When < out[j].When
		}
		return out[i].Stop < out[j].Stop
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func oracleKNNLD(labels *ttl.Labels, q timetable.StopID, targets []timetable.StopID, tq timetable.Time, k int) []Result {
	var out []Result
	for _, w := range targets {
		if d := labels.LatestDeparture(q, w, tq); d > timetable.NegInfinity {
			out = append(out, Result{Stop: w, When: d})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].When != out[j].When {
			return out[i].When > out[j].When
		}
		return out[i].Stop < out[j].Stop
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// checkKNN compares a PTLDB kNN answer against the oracle top-k with
// tie-tolerance: the value sequences must be identical, every returned stop
// must be a distinct target carrying its exact per-target optimum, and the
// sizes must agree. (Which of several tied stops is returned is
// implementation-defined, in PTLDB as in the paper.)
func checkKNN(t *testing.T, desc string, got, want []Result, perTarget map[timetable.StopID]timetable.Time) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results %v, want %d %v", desc, len(got), got, len(want), want)
	}
	seen := map[timetable.StopID]bool{}
	for i := range got {
		if got[i].When != want[i].When {
			t.Fatalf("%s: position %d value %v, want %v (got %v want %v)", desc, i, got[i].When, want[i].When, got, want)
		}
		if seen[got[i].Stop] {
			t.Fatalf("%s: duplicate stop %d in %v", desc, got[i].Stop, got)
		}
		seen[got[i].Stop] = true
		exact, ok := perTarget[got[i].Stop]
		if !ok {
			t.Fatalf("%s: stop %d is not a target", desc, got[i].Stop)
		}
		if exact != got[i].When {
			t.Fatalf("%s: stop %d claims %v, exact optimum is %v", desc, got[i].Stop, got[i].When, exact)
		}
	}
}

func TestKNNAndOTMRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 3; iter++ {
		tt := randomTimetable(rng, 14+rng.Intn(8), 200+rng.Intn(150))
		st, labels := newStore(t, tt, order.ByNeighborDegree(tt), BuildOptions{})
		n := tt.NumStops()

		// Random target set (may include any stop), kmax 4.
		var targets []timetable.StopID
		for w := 0; w < n; w++ {
			if rng.Intn(3) == 0 {
				targets = append(targets, timetable.StopID(w))
			}
		}
		if len(targets) < 3 {
			targets = []timetable.StopID{0, 1, 2}
		}
		const kmax = 4
		if err := st.AddTargetSet("poi", targets, kmax); err != nil {
			t.Fatal(err)
		}

		for trial := 0; trial < 40; trial++ {
			q := timetable.StopID(rng.Intn(n))
			tq := timetable.Time(rng.Intn(90000))
			k := 1 + rng.Intn(kmax)

			perEA := map[timetable.StopID]timetable.Time{}
			perLD := map[timetable.StopID]timetable.Time{}
			for _, w := range targets {
				perEA[w] = labels.EarliestArrival(q, w, tq)
				perLD[w] = labels.LatestDeparture(q, w, tq)
			}

			wantEA := oracleKNNEA(labels, q, targets, tq, k)
			gotEA, err := st.EAKNN("poi", q, tq, k)
			if err != nil {
				t.Fatal(err)
			}
			checkKNN(t, "EA-kNN", gotEA, wantEA, perEA)

			gotNaive, err := st.EAKNNNaive("poi", q, tq, k)
			if err != nil {
				t.Fatal(err)
			}
			checkKNN(t, "EA-kNN-naive", gotNaive, wantEA, perEA)

			wantLD := oracleKNNLD(labels, q, targets, tq, k)
			gotLD, err := st.LDKNN("poi", q, tq, k)
			if err != nil {
				t.Fatal(err)
			}
			checkKNN(t, "LD-kNN", gotLD, wantLD, perLD)

			gotLDNaive, err := st.LDKNNNaive("poi", q, tq, k)
			if err != nil {
				t.Fatal(err)
			}
			checkKNN(t, "LD-kNN-naive", gotLDNaive, wantLD, perLD)

			// One-to-many: exact per-target results for every reachable
			// target, ordered like the oracle with k = |T|.
			wantOTM := oracleKNNEA(labels, q, targets, tq, len(targets))
			gotOTM, err := st.EAOTM("poi", q, tq)
			if err != nil {
				t.Fatal(err)
			}
			checkKNN(t, "EA-OTM", gotOTM, wantOTM, perEA)

			wantOTMLD := oracleKNNLD(labels, q, targets, tq, len(targets))
			gotOTMLD, err := st.LDOTM("poi", q, tq)
			if err != nil {
				t.Fatal(err)
			}
			checkKNN(t, "LD-OTM", gotOTMLD, wantOTMLD, perLD)
		}
	}
}

// TestPaperKNNExample reproduces Section 3.2.1's worked example:
// EA-kNN(0, {4, 6}, 360, 1) = (4, 396).
func TestPaperKNNExample(t *testing.T) {
	st, _ := paperStore(t)
	if err := st.AddTargetSet("poi", []timetable.StopID{4, 6}, 4); err != nil {
		t.Fatal(err)
	}
	for _, fn := range []func(string, timetable.StopID, timetable.Time, int) ([]Result, error){
		st.EAKNN, st.EAKNNNaive,
	} {
		got, err := fn("poi", 0, 36000, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0].Stop != 4 || got[0].When != 39600 {
			t.Fatalf("EA-kNN(0,{4,6},360,1) = %v, want [(4,396)]", got)
		}
	}
}

func TestBucketWidthAblationCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	tt := randomTimetable(rng, 15, 250)
	for _, width := range []int32{900, 3600, 10800} {
		st, labels := newStore(t, tt, order.ByDegree(tt), BuildOptions{BucketSeconds: width})
		targets := []timetable.StopID{1, 3, 5, 7, 9}
		if err := st.AddTargetSet("poi", targets, 4); err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 25; trial++ {
			q := timetable.StopID(rng.Intn(tt.NumStops()))
			tq := timetable.Time(rng.Intn(90000))
			perEA := map[timetable.StopID]timetable.Time{}
			perLD := map[timetable.StopID]timetable.Time{}
			for _, w := range targets {
				perEA[w] = labels.EarliestArrival(q, w, tq)
				perLD[w] = labels.LatestDeparture(q, w, tq)
			}
			got, err := st.EAKNN("poi", q, tq, 4)
			if err != nil {
				t.Fatal(err)
			}
			checkKNN(t, "EA-kNN", got, oracleKNNEA(labels, q, targets, tq, 4), perEA)
			gotLD, err := st.LDKNN("poi", q, tq, 4)
			if err != nil {
				t.Fatal(err)
			}
			checkKNN(t, "LD-kNN", gotLD, oracleKNNLD(labels, q, targets, tq, 4), perLD)
		}
	}
}

func TestOpenReload(t *testing.T) {
	dir := t.TempDir()
	tt := timetable.PaperExample()
	labels := ttl.Build(tt, order.Identity(7)).Augment()
	db, err := sqldb.Open(dir, sqldb.Options{Device: storage.RAM, PoolPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Build(db, labels, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AddTargetSet("poi", []timetable.StopID{4, 6}, 2); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := sqldb.Open(dir, sqldb.Options{Device: storage.RAM, PoolPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	st2, err := Open(db2)
	if err != nil {
		t.Fatal(err)
	}
	ts, ok := st2.TargetSet("poi")
	if !ok || ts.KMax != 2 || len(ts.Targets) != 2 {
		t.Fatalf("target set lost: %+v %v", ts, ok)
	}
	arr, ok, err := st2.EarliestArrival(1, 1, 32400)
	if err != nil || !ok || arr != 32400 {
		t.Errorf("EA after reopen = %v %v %v", arr, ok, err)
	}
	got, err := st2.EAKNN("poi", 0, 36000, 1)
	if err != nil || len(got) != 1 || got[0].Stop != 4 {
		t.Errorf("kNN after reopen = %v %v", got, err)
	}
}

func TestValidationErrors(t *testing.T) {
	st, _ := paperStore(t)
	if err := st.AddTargetSet("Bad Name", []timetable.StopID{1}, 2); err == nil {
		t.Error("invalid set name accepted")
	}
	if err := st.AddTargetSet("poi", nil, 2); err == nil {
		t.Error("empty target set accepted")
	}
	if err := st.AddTargetSet("poi", []timetable.StopID{99}, 2); err == nil {
		t.Error("out-of-range target accepted")
	}
	if err := st.AddTargetSet("poi", []timetable.StopID{1}, 0); err == nil {
		t.Error("kmax 0 accepted")
	}
	if err := st.AddTargetSet("poi", []timetable.StopID{1, 2}, 2); err != nil {
		t.Fatal(err)
	}
	// A refused AddTargetSet prepares and registers nothing.
	_, parsed := st.DB.StmtCacheStats()
	if err := st.AddTargetSet("poi", []timetable.StopID{1, 2}, 4); err == nil {
		t.Error("duplicate set accepted")
	}
	if err := st.AddTargetSet("other", []timetable.StopID{1}, 0); err == nil {
		t.Error("kmax 0 accepted")
	}
	if _, now := st.DB.StmtCacheStats(); now != parsed || len(st.ver.sets) != 1 || st.ver.sets["poi"].kmax != 2 {
		t.Errorf("refused AddTargetSet: %d parses, sets %v", now-parsed, st.ver.sets)
	}
	if _, err := st.EAKNN("nope", 0, 0, 1); err == nil {
		t.Error("unknown set accepted")
	}
	if _, err := st.EAKNN("poi", 0, 0, 5); err == nil {
		t.Error("k > kmax accepted")
	}
	if _, err := st.EAKNN("poi", 0, 0, 0); err == nil {
		t.Error("k = 0 accepted")
	}
}

func TestBuildRejectsBadOptions(t *testing.T) {
	tt := timetable.PaperExample()
	labels := ttl.Build(tt, order.Identity(7)) // not augmented: Build must handle
	db, err := sqldb.Open(t.TempDir(), sqldb.Options{Device: storage.RAM, PoolPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	st, err := Build(db, labels, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The store augmented a clone; the original is untouched.
	if labels.Augmented {
		t.Error("Build mutated the caller's labels")
	}
	if arr, ok, _ := st.EarliestArrival(1, 1, 32400); !ok || arr != 32400 {
		t.Error("auto-augmented store gives wrong answers")
	}
	// Target sets build from the stored lin table, so no labels are needed.
	if err := st.AddTargetSet("poi", []timetable.StopID{1}, 2); err != nil {
		t.Errorf("AddTargetSet after Build: %v", err)
	}
}

func TestStopsMetadataTable(t *testing.T) {
	tt := timetable.PaperExample()
	labels := ttl.Build(tt, order.Identity(7)).Augment()
	db, err := sqldb.Open(t.TempDir(), sqldb.Options{Device: storage.RAM, PoolPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	st, err := Build(db, labels, BuildOptions{Stops: tt.Stops()})
	if err != nil {
		t.Fatal(err)
	}
	s, ok, err := st.Stop(3)
	if err != nil || !ok {
		t.Fatalf("Stop(3): %v %v", ok, err)
	}
	if s.Name != "stop-3" || s.ID != 3 {
		t.Errorf("Stop(3) = %+v", s)
	}
	if _, ok, err := st.Stop(99); err != nil || ok {
		t.Errorf("Stop(99) = %v %v", ok, err)
	}
	// Names are reachable through plain SQL too.
	rel, err := st.Raw("SELECT name FROM stops WHERE v = 5")
	if err != nil || len(rel.Rows) != 1 || rel.Rows[0][0].S != "stop-5" {
		t.Fatalf("SQL stops lookup: %v %v", rel, err)
	}
	// ... and with the access-path trace, as ptldb-query explain runs it.
	rel, trace, err := st.RawTraced("SELECT name FROM stops WHERE v = $1", sqltypes.NewInt(5))
	if err != nil || len(rel.Rows) != 1 || rel.Rows[0][0].S != "stop-5" || len(trace) == 0 {
		t.Fatalf("traced SQL stops lookup: %v, trace %q, %v", rel, trace, err)
	}
	// A statement outside the dialect is the console's parse error, naming
	// the token it stopped at.
	if _, err := st.Raw("SELECT * FROM stops"); err == nil || !strings.Contains(err.Error(), `not in the dialect`) || !strings.Contains(err.Error(), `"*"`) {
		t.Errorf(`Raw("SELECT * FROM stops") = %v; want a parse error naming "*"`, err)
	}
	// Without the option, Stop reports a missing table.
	db2, _ := sqldb.Open(t.TempDir(), sqldb.Options{Device: storage.RAM, PoolPages: 1024})
	defer db2.Close()
	st2, err := Build(db2, labels, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st2.Stop(0); err == nil {
		t.Error("Stop without stops table succeeded")
	}
}
