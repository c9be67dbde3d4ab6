package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"ptldb/internal/sqldb"
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

// TestAllExperimentsRun executes every experiment end to end at tiny scale,
// sanity-checks the rendered tables (ablation-layout's pages per fetch are
// positive) and judges every claim on them: each
// claim gets a verdict, and on table7 alone every claim that reads another
// table reads "not run".
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny-scale experiment sweep is still a few seconds")
	}
	w := tinyWorkspace(t)
	tabs := map[string]*Table{}
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
		if strings.Contains(sb.String(), "```") {
			t.Errorf("%s: render holds a chart block", id)
		}
		tabs[id] = tbl
	}
	// A cold fetch reads at least its row's page from the device.
	for _, row := range tabs["ablation-layout"].Rows {
		if pages, err := strconv.ParseFloat(row[2], 64); err != nil || pages <= 0 {
			t.Errorf("ablation-layout %s: pages/fetch %q, want a positive number", row[0], row[2])
		}
	}
	for _, row := range ClaimTable(tabs, w.Config().Scale).Rows {
		if v := row[4]; !strings.HasPrefix(v, "✅") && !strings.HasPrefix(v, "⚠️") && !strings.HasPrefix(v, "❌") {
			t.Errorf("claim %s: verdict %q, cells %q; want ✅, ⚠️ or ❌", row[0], v, row[5])
		}
	}
	for i, row := range ClaimTable(map[string]*Table{"table7": tabs["table7"]}, w.Config().Scale).Rows {
		other := slices.ContainsFunc(Claims[i].Exps, func(id string) bool { return id != "table7" })
		if notRun := row[4] == "not run"; notRun != other {
			t.Errorf("claim %s on table7 alone: verdict %q, reads %v", row[0], row[4], Claims[i].Exps)
		}
	}
	// Ids outside ExperimentIDs (system-performance experiments belong to
	// benchmark/) are rejected with the list of valid ones.
	want := fmt.Sprintf("unknown experiment %q (want one of %v)", "serve", ExperimentIDs)
	if _, err := w.Run("serve"); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Run(\"serve\") = %v, want an error containing %q", err, want)
	}
}

// TestMeasureQueriesChargesIO: Workspace.Open has no vector cache, so a cold
// HDD v2v query reads its two labels from the device: at least one simulated
// random read (12ms) each, charged as simulated I/O. (That a handle with the
// default vector cache reads nothing after DropCaches is the root package's
// TestFacadeReopenAcrossDevices.)
func TestMeasureQueriesChargesIO(t *testing.T) {
	w := tinyWorkspace(t)
	ds, err := w.Dataset("Austin")
	if err != nil {
		t.Fatal(err)
	}
	db, err := w.Open(ds, "hdd")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
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
	if avg < 4*time.Millisecond || st.SimulatedIO == 0 {
		t.Errorf("avg cold HDD v2v query %v, %v of simulated I/O; want at least 4ms and some I/O", avg, st.SimulatedIO)
	}
}

// TestTargetSetBuiltBeforeMeasuringIsAnswered: a target set EnsureTargetSet
// has just built is in the directory before the measuring handle opens, so
// that handle answers a kNN on it, and with no vector cache the kNN measured
// by MeasureQueries reads the simulated device.
func TestTargetSetBuiltBeforeMeasuringIsAnswered(t *testing.T) {
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
	if st.SimulatedIO == 0 {
		t.Error("kNN on a set just built: the measured queries charged no simulated I/O; want the device read")
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
			if _, err := os.Stat(filepath.Join(cache, want, sqldb.ImageName)); err != nil {
				t.Errorf("seed %d, width %d: no database at %s: %v", seed, width, want, err)
			}
		}
	}
	if entries, err := os.ReadDir(cache); err != nil || len(entries) != 6 {
		t.Errorf("cache holds %d directories (%v), want one per (seed, width) = 6", len(entries), err)
	}
}

// TestStorageIndependentOfExperimentOrder: Storage builds every target set
// the figures read before it measures, so on a fresh workspace it reports
// what it reports after the figures have run.
func TestStorageIndependentOfExperimentOrder(t *testing.T) {
	var rows [2][][]string
	for i, before := range [][]string{nil, {"fig3", "fig4", "fig5", "fig6", "fig7", "fig8"}} {
		w, err := NewWorkspace(Config{Scale: 0.005, Cities: []string{"Austin"}, Queries: 2, Seed: 3, CacheDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range before {
			if _, err := w.Run(id); err != nil {
				t.Fatal(err)
			}
		}
		tab, err := w.Storage()
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = tab.Rows
	}
	if !slices.EqualFunc(rows[0], rows[1], slices.Equal[[]string]) {
		t.Errorf("storage on a fresh workspace %v, after the figures %v", rows[0], rows[1])
	}
}
