package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func tinyWorkspace(t *testing.T) *Workspace {
	t.Helper()
	w, err := NewWorkspace(Config{
		Scale:    0.005,
		Cities:   []string{"Austin", "Salt Lake City"},
		Queries:  5,
		Seed:     3,
		CacheDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWorkspaceValidation(t *testing.T) {
	if _, err := NewWorkspace(Config{Scale: 2}); err == nil {
		t.Error("scale > 1 accepted")
	}
	if _, err := NewWorkspace(Config{Cities: []string{"Gotham"}}); err == nil {
		t.Error("unknown city accepted")
	}
	w, err := NewWorkspace(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Config().Cities) != 11 || w.Config().Queries != 200 {
		t.Errorf("defaults: %+v", w.Config())
	}
}

func TestWorkloadProtocol(t *testing.T) {
	w := tinyWorkspace(t)
	ds, err := w.Dataset("Austin")
	if err != nil {
		t.Fatal(err)
	}
	wl := w.NewWorkload(ds, 50)
	min, span := ds.TT.MinTime(), ds.TT.Span()
	for i := range wl.Sources {
		if wl.Sources[i] == wl.Goals[i] {
			t.Error("source equals goal")
		}
		if wl.Starts[i] < min || wl.Starts[i] > min+span/4 {
			t.Errorf("start %v outside first quarter [%v, %v]", wl.Starts[i], min, min+span/4)
		}
		if wl.Ends[i] < min+span*3/4 || wl.Ends[i] > min+span {
			t.Errorf("end %v outside fourth quarter", wl.Ends[i])
		}
	}
}

func TestDatasetCaching(t *testing.T) {
	w := tinyWorkspace(t)
	ds, err := w.Dataset("Austin")
	if err != nil {
		t.Fatal(err)
	}
	if !ds.built {
		t.Fatal("first build not marked built")
	}
	// A fresh workspace over the same cache dir must reuse the database.
	w2, err := NewWorkspace(w.Config())
	if err != nil {
		t.Fatal(err)
	}
	ds2, err := w2.Dataset("Austin")
	if err != nil {
		t.Fatal(err)
	}
	if ds2.built {
		t.Error("cached dataset was rebuilt")
	}
}

// TestAllExperimentsRun executes every experiment end to end at tiny scale
// and sanity-checks the rendered tables.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny-scale experiment sweep is still a few seconds")
	}
	w := tinyWorkspace(t)
	for _, id := range ExperimentIDs {
		tbl, err := w.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tbl.Rows) == 0 || len(tbl.Columns) == 0 {
			t.Errorf("%s: empty table", id)
		}
		var sb strings.Builder
		if err := tbl.Render(&sb); err != nil {
			t.Fatalf("%s: render: %v", id, err)
		}
		if !strings.Contains(sb.String(), tbl.Title) {
			t.Errorf("%s: render lacks title", id)
		}
	}
	// Ids outside ExperimentIDs (system-performance experiments belong to
	// benchmark/) are rejected with the list of valid ones.
	want := fmt.Sprintf("unknown experiment %q (want one of %v)", "serve", ExperimentIDs)
	if _, err := w.Run("serve"); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Run(\"serve\") = %v, want an error containing %q", err, want)
	}
}

// TestMeasureQueriesChargesIO: without a vector cache a cold HDD query costs
// at least one simulated random read (12ms); with the default budget Open
// decoded every label table, and the measured queries read nothing.
func TestMeasureQueriesChargesIO(t *testing.T) {
	w := tinyWorkspace(t)
	ds, err := w.Dataset("Austin")
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{-1, 0} {
		w.cfg.VCacheBytes = budget
		db, err := w.Open(ds, "hdd")
		if err != nil {
			t.Fatal(err)
		}
		wl := w.NewWorkload(ds, 3)
		avg, err := MeasureQueries(db, 3, func(i int) error {
			_, _, err := db.EarliestArrival(wl.Sources[i], wl.Goals[i], wl.Starts[i])
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := db.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if budget < 0 && avg < 4*time.Millisecond {
			t.Errorf("avg cold HDD v2v query %v implausibly fast", avg)
		}
		if budget == 0 && st.SimulatedIO != 0 {
			t.Errorf("the default vector cache: the measured queries charged %v of simulated I/O; want none", st.SimulatedIO)
		}
		db.Close()
	}
}

// TestTargetSetBuiltBeforeMeasuringIsResident: a target set EnsureTargetSet
// has just built is in the directory before the measuring handle opens, so
// that handle's vector cache (the default budget) admits it, and a kNN on it
// measured by MeasureQueries charges no simulated I/O. A set built on the
// measuring handle would be read from its segments on the simulated HDD.
func TestTargetSetBuiltBeforeMeasuringIsResident(t *testing.T) {
	w := tinyWorkspace(t)
	ds, err := w.Dataset("Austin")
	if err != nil {
		t.Fatal(err)
	}
	set, err := w.EnsureTargetSet(ds, 0.01, 4)
	if err != nil {
		t.Fatal(err)
	}
	db, err := w.Open(ds, "hdd")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	wl := w.NewWorkload(ds, 3)
	if _, err := MeasureQueries(db, 3, func(i int) error {
		_, err := db.EAKNN(set, wl.Sources[i], wl.Starts[i], 4)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.SimulatedIO != 0 {
		t.Errorf("kNN on a set just built: the measured queries charged %v of simulated I/O; want none", st.SimulatedIO)
	}
}

// TestAblationBucketCacheKeyedBySeedAndFormat: the bucket ablation's cached
// databases are built from (city, width, scale, seed) in the current on-disk
// format, so two workspaces that differ in seed build side by side in one
// cache directory instead of one measuring the other's database — and a
// directory left by an older format is never picked up.
func TestAblationBucketCacheKeyedBySeedAndFormat(t *testing.T) {
	cache := t.TempDir()
	for _, seed := range []int64{3, 4} {
		w, err := NewWorkspace(Config{Scale: 0.005, Cities: []string{"Austin"}, Queries: 2, Seed: seed, CacheDir: cache})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Run("ablation-bucket"); err != nil {
			t.Fatal(err)
		}
		for _, width := range []int{900, 3600, 10800} {
			want := fmt.Sprintf("austin_bucket%d_s0050_r%d_f%d", width, seed, datasetFormat)
			if _, err := os.Stat(filepath.Join(cache, want, "catalog.json")); err != nil {
				t.Errorf("seed %d, width %d: no database at %s: %v", seed, width, want, err)
			}
		}
	}
	if entries, err := os.ReadDir(cache); err != nil || len(entries) != 6 {
		t.Errorf("cache holds %d directories (%v), want one per (seed, width) = 6", len(entries), err)
	}
}
