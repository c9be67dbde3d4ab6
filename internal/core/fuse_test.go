package core

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"ptldb/internal/sqldb"
	"ptldb/internal/sqldb/exec"
	"ptldb/internal/sqldb/storage"
	"ptldb/internal/timetable"
	"ptldb/internal/ttl"
)

// TestPreparedStatementsFuse asserts that every statement the store issues
// compiles to a fused plan, and that the full query battery never reaches the
// general executor.
func TestPreparedStatementsFuse(t *testing.T) {
	st, _ := paperStore(t)
	if err := st.AddTargetSet("poi", []timetable.StopID{4, 6}, 4); err != nil {
		t.Fatal(err)
	}

	if !st.v2vEA.Fused() || !st.v2vLD.Fused() || !st.v2vSD.Fused() || !st.v2vWitness.Fused() {
		t.Errorf("v2v statements fused = %v, %v, %v, %v; want all true",
			st.v2vEA.Fused(), st.v2vLD.Fused(), st.v2vSD.Fused(), st.v2vWitness.Fused())
	}

	knn := []struct {
		name   string
		format string
		args   []any
	}{
		{"knn-naive-ea", exec.SQLKNNNaiveEA, []any{st.setTable("ea_knn_naive", "poi"), st.loutTable()}},
		{"knn-naive-ld", exec.SQLKNNNaiveLD, []any{st.setTable("ld_knn_naive", "poi"), st.loutTable()}},
		{"knn-ea", exec.SQLKNNEA, []any{st.setTable("knn_ea", "poi"), st.meta.BucketSeconds, st.loutTable()}},
		{"knn-ld", exec.SQLKNNLD, []any{st.setTable("knn_ld", "poi"), st.meta.BucketSeconds, st.loutTable()}},
		{"otm-ea", exec.SQLOTMEA, []any{st.setTable("otm_ea", "poi"), st.meta.BucketSeconds, st.loutTable()}},
		{"otm-ld", exec.SQLOTMLD, []any{st.setTable("otm_ld", "poi"), st.meta.BucketSeconds, st.loutTable()}},
	}
	for _, q := range knn {
		stmt, err := st.prepared(q.format, q.args...)
		if err != nil {
			t.Fatalf("%s: prepare: %v", q.name, err)
		}
		if !stmt.Fused() {
			t.Errorf("%s: statement did not fuse", q.name)
		}
	}

	queryBattery(t, st)
	fused, general := st.DB.FusedStats()
	if fused == 0 {
		t.Error("query battery recorded no fused executions")
	}
	if general != 0 {
		t.Errorf("query battery ran the general executor %d times, want 0", general)
	}
}

// TestBuildRejectsUnorderedLabels: a label whose arrivals descend while its
// departures ascend inside one hub's run is in no order a sort can repair.
// The label tables declare their run order, so Build and AddVersion stop with
// the table and the stop named instead of storing an image the run-order join
// would answer wrongly.
func TestBuildRejectsUnorderedLabels(t *testing.T) {
	st, labels := paperStore(t)
	bad := labels.Clone()
	run := []ttl.Tuple{
		{Hub: 0, Dep: 100, Arr: 900, Pivot: timetable.NoStop, Trip: timetable.NoTrip},
		{Hub: 0, Dep: 200, Arr: 800, Pivot: timetable.NoStop, Trip: timetable.NoTrip},
	}
	bad.Out[3] = append(run, bad.Out[3]...)
	check := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s accepted a label that is not run-ordered", what)
		}
		for _, frag := range []string{"lout", "row 3", "run order"} {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("%s: error lacks %q: %v", what, frag, err)
			}
		}
	}
	check("AddVersion", st.AddVersion("weekend", bad))
	if arr, ok, err := st.EarliestArrival(1, 1, 32400); err != nil || !ok || arr != 32400 {
		t.Errorf("after the refused version: EA(1,1,324) = %v, %v, %v", arr, ok, err)
	}
	db, err := sqldb.Open(t.TempDir(), sqldb.Options{Device: storage.RAM, PoolPages: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, err = Build(db, bad, BuildOptions{})
	check("Build", err)
}

func TestEnsureLabelOrder(t *testing.T) {
	// Already ordered: left byte-for-byte intact.
	hubs := []int64{1, 1, 2, 2, 2, 5}
	tds := []int64{3, 7, 0, 0, 9, 4}
	tas := []int64{9, 2, 1, 3, 0, 8}
	wantH := append([]int64(nil), hubs...)
	wantD := append([]int64(nil), tds...)
	wantA := append([]int64(nil), tas...)
	ensureLabelOrder(hubs, tds, tas)
	for i := range hubs {
		if hubs[i] != wantH[i] || tds[i] != wantD[i] || tas[i] != wantA[i] {
			t.Fatalf("sorted input was reordered at %d", i)
		}
	}

	// Random input: sorted lexicographically by (hub, td, ta) afterwards,
	// and the multiset of (hub, td, ta) triples is preserved.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(30)
		h := make([]int64, n)
		d := make([]int64, n)
		a := make([]int64, n)
		type triple struct{ h, d, a int64 }
		var want []triple
		for i := 0; i < n; i++ {
			h[i] = int64(rng.Intn(5))
			d[i] = int64(rng.Intn(10))
			a[i] = int64(rng.Intn(10))
			want = append(want, triple{h[i], d[i], a[i]})
		}
		ensureLabelOrder(h, d, a)
		for i := 1; i < n; i++ {
			if h[i] < h[i-1] ||
				(h[i] == h[i-1] && (d[i] < d[i-1] || (d[i] == d[i-1] && a[i] < a[i-1]))) {
				t.Fatalf("trial %d: not sorted at %d: %v %v %v", trial, i, h, d, a)
			}
		}
		var got []triple
		for i := 0; i < n; i++ {
			got = append(got, triple{h[i], d[i], a[i]})
		}
		less := func(s []triple) func(i, j int) bool {
			return func(i, j int) bool {
				if s[i].h != s[j].h {
					return s[i].h < s[j].h
				}
				if s[i].d != s[j].d {
					return s[i].d < s[j].d
				}
				return s[i].a < s[j].a
			}
		}
		sort.Slice(want, less(want))
		sort.Slice(got, less(got))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: triples not preserved: got %v want %v", trial, got, want)
			}
		}
	}
}
