// Package bench is the experiment harness behind cmd/ptldb-bench: it
// rebuilds every table and figure of the paper's evaluation (Section 4) on
// the synthetic datasets, plus four ablations of the paper's design
// arguments, and judges the paper's claims on the tables it printed
// (claims.go). System performance of this implementation is measured by the
// benchmark/ module, not here.
//
// Protocol (paper Section 4): for each experiment 1000 random source stops
// (and goal stops for vertex-to-vertex queries) are drawn; EA and SD start
// timestamps come from the first quarter of the timetable's timestamp range
// and LD/SD end timestamps from the fourth quarter, so that most queries
// have non-empty answers; the buffer cache is dropped before each
// experiment ("we restart the PostgreSQL server ... and clear the operating
// system's cache"); the average time per query is reported.
//
// Every database opens with no vector cache, so a label read goes through
// the buffer pool to the simulated device the experiment names, as the
// paper's Postgres reads its disk. A reported query time is wall-clock CPU
// time plus the simulated device time charged by the buffer pool during the
// query. The one warm regime, every table resident, is ablation-engine's
// warm row (and the benchmark/ module's warm workloads).
package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"ptldb"
	"ptldb/internal/sqldb"
	"ptldb/internal/timetable"
)

// Config controls dataset size and measurement effort.
type Config struct {
	// Scale multiplies the paper's dataset sizes (1.0 = full size).
	Scale float64
	// Cities selects dataset profiles by name (default: all eleven).
	Cities []string
	// Queries per experiment (the paper uses 1000).
	Queries int
	// Seed drives workload generation and target-set selection.
	Seed int64
	// CacheDir holds the built databases; databases found there are reused
	// (preprocessing is deterministic).
	CacheDir string
	// BuildWorkers is the preprocessing parallelism of database builds
	// (0 = GOMAXPROCS). The built databases are identical for every value.
	BuildWorkers int
}

// Defaults fills unset fields: scale 0.05, 200 queries, all cities, a cache
// under os.TempDir.
func (c Config) Defaults() Config {
	if c.Scale == 0 {
		c.Scale = 0.05
	}
	if c.Queries == 0 {
		c.Queries = 200
	}
	if len(c.Cities) == 0 {
		for _, p := range ptldb.Profiles() {
			c.Cities = append(c.Cities, p.Name)
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.CacheDir == "" {
		c.CacheDir = filepath.Join(os.TempDir(), "ptldb-bench-cache")
	}
	return c
}

// datasetFormat versions the cache-dir naming. Bump it whenever the on-disk
// image changes (v2: segment region checksums; v3: label tables are segments
// only; v4: condensed tables are keyed, hence laid out, bucket-first; v5:
// every table is a segment — a v4 image has stops.heap and no stops.seg; v6:
// the label tables declare run_order in the catalog — a v5 image built before
// they did has none; v7: the naive and condensed tables declare target_ids
// there; v8: the EA condensed tables declare their floor there; v9: the EA
// one-to-many table declares its target count there; v10: a target set has one
// knn_naive table where it had ea_knn_naive and ld_knn_naive; v11: the tables'
// segments are one image file, image.seg, where each had <table>.seg; v12: the
// catalog moved into the segment headers; v13: segment version 4, the label
// hubs stored as runs; v14: segment version 5, whose element count is the
// resident int32s, two per hub run): a stale cache would fail to open.
const datasetFormat = 14

// Densities are the paper's target-density values D = |T| / |V|.
var Densities = []float64{0.001, 0.005, 0.01, 0.05, 0.1}

// Ks are the paper's k values for the kNN experiments.
var Ks = []int{1, 2, 4, 8, 16}

// Workspace builds and caches datasets across experiments.
type Workspace struct {
	cfg Config
	// datasets caches generated networks and preprocessing stats by city.
	datasets map[string]*Dataset
	Progress func(format string, args ...any) // optional progress logger
}

// Dataset is one generated city with its on-disk database.
type Dataset struct {
	Profile ptldb.CityProfile
	TT      *ptldb.Network
	Dir     string
	Preproc ptldb.PreprocessStats
	// built reports whether this run preprocessed the dataset (false when
	// reused from the cache, in which case Preproc is zero).
	built bool
}

// NewWorkspace validates the configuration.
func NewWorkspace(cfg Config) (*Workspace, error) {
	cfg = cfg.Defaults()
	if cfg.Scale <= 0 || cfg.Scale > 1 {
		return nil, fmt.Errorf("bench: scale %v outside (0, 1]", cfg.Scale)
	}
	for _, c := range cfg.Cities {
		found := false
		for _, p := range ptldb.Profiles() {
			if p.Name == c {
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("bench: unknown city %q", c)
		}
	}
	return &Workspace{cfg: cfg, datasets: map[string]*Dataset{}}, nil
}

// Config returns the effective configuration.
func (w *Workspace) Config() Config { return w.cfg }

func (w *Workspace) logf(format string, args ...any) {
	if w.Progress != nil {
		w.Progress(format, args...)
	}
}

// Dataset generates (or reuses) the network and database for a city.
func (w *Workspace) Dataset(city string) (*Dataset, error) {
	if ds, ok := w.datasets[city]; ok {
		return ds, nil
	}
	tt, err := ptldb.GenerateCity(city, w.cfg.Scale, w.cfg.Seed)
	if err != nil {
		return nil, err
	}
	var prof ptldb.CityProfile
	for _, p := range ptldb.Profiles() {
		if p.Name == city {
			prof = p
		}
	}
	dir := w.cacheDir(sanitize(city))
	ds := &Dataset{Profile: prof, TT: tt, Dir: dir}

	statsPath := filepath.Join(dir, "preproc.json")
	if _, err := os.Stat(filepath.Join(dir, sqldb.ImageName)); err == nil {
		w.logf("reusing cached database for %s (%s)", city, dir)
		if blob, err := os.ReadFile(statsPath); err == nil {
			_ = json.Unmarshal(blob, &ds.Preproc)
		}
		w.datasets[city] = ds
		return ds, nil
	}
	w.logf("preprocessing %s: %d stops, %d connections", city, tt.NumStops(), tt.NumConnections())
	db, stats, err := ptldb.CreateWithStats(dir, tt, ptldb.Config{
		Device: "ram", VectorCacheBytes: -1, BuildWorkers: w.cfg.BuildWorkers,
	})
	if err != nil {
		return nil, err
	}
	if err := db.Close(); err != nil {
		return nil, err
	}
	if blob, err := json.Marshal(stats); err == nil {
		_ = os.WriteFile(statsPath, blob, 0o644)
	}
	ds.Preproc, ds.built = stats, true
	w.datasets[city] = ds
	return ds, nil
}

// cacheDir names the cached database of one build variant. Everything a built
// image depends on besides the variant is in the name — scale, seed and
// on-disk format — so workspaces that differ in any of them never share a
// directory.
func (w *Workspace) cacheDir(variant string) string {
	return filepath.Join(w.cfg.CacheDir,
		fmt.Sprintf("%s_s%04d_r%d_f%d", variant, int(w.cfg.Scale*10000), w.cfg.Seed, datasetFormat))
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			out = append(out, r)
		case r >= 'A' && r <= 'Z':
			out = append(out, r+'a'-'A')
		}
	}
	return string(out)
}

// Open opens a dataset's database on the given simulated device with no
// vector cache: every label read goes through the buffer pool to the device.
func (w *Workspace) Open(ds *Dataset, device string) (*ptldb.DB, error) {
	return ptldb.Open(ds.Dir, ptldb.Config{Device: device, VectorCacheBytes: -1})
}

// setName derives the stored name of a target set for a density and kmax.
func setName(d float64, kmax int) string {
	return fmt.Sprintf("d%d_k%d", int(d*10000), kmax)
}

// knnKMaxes are the kmax values of the kNN experiments' target sets: k <= 4
// is served by the kmax=4 tables, larger k by kmax=16 (knnKMax).
var knnKMaxes = []int{4, 16}

// knnKMax is the kmax of the target set that serves a kNN of k.
func knnKMax(k int) int {
	if k > 4 {
		return 16
	}
	return 4
}

// EnsureTargetSet builds the kNN/OTM tables for (density, kmax) into the
// dataset's directory if they are not there yet, returning the set name. The
// directory writer has committed them when it returns, so a handle opened
// after it — call it before opening the handle that measures — answers from
// them. Target stops are drawn uniformly with the workspace
// seed, so every experiment sees the same sets, and a set that is there
// already is the writer's one refusal of these arguments: a name the version
// has (ptldb.ErrInvalidArgument).
func (w *Workspace) EnsureTargetSet(ds *Dataset, d float64, kmax int) (string, error) {
	name := setName(d, kmax)
	n := ds.TT.NumStops()
	count := int(d * float64(n))
	if count < 1 {
		count = 1
	}
	rng := rand.New(rand.NewSource(w.cfg.Seed ^ int64(count)<<20 ^ int64(kmax)))
	perm := rng.Perm(n)
	targets := make([]ptldb.StopID, count)
	for i := 0; i < count; i++ {
		targets[i] = ptldb.StopID(perm[i])
	}
	switch err := ptldb.AddTargetSet(ds.Dir, "base", name, targets, kmax, ptldb.Config{Device: "ram", BuildWorkers: w.cfg.BuildWorkers}); {
	case err == nil:
		w.logf("built target set %s for %s (%d targets)", name, ds.Profile.Name, count)
	case !ptldb.IsInvalidArgument(err):
		return "", err
	}
	return name, nil
}

// Workload is a batch of query inputs following the paper's protocol.
type Workload struct {
	Sources []timetable.StopID
	Goals   []timetable.StopID
	// Starts are EA/SD start timestamps (first quarter of the range);
	// Ends are LD/SD end timestamps (fourth quarter).
	Starts []timetable.Time
	Ends   []timetable.Time
}

// NewWorkload draws n queries for the dataset.
func (w *Workspace) NewWorkload(ds *Dataset, n int) Workload {
	rng := rand.New(rand.NewSource(w.cfg.Seed + 7))
	span := ds.TT.Span()
	min := ds.TT.MinTime()
	wl := Workload{
		Sources: make([]timetable.StopID, n),
		Goals:   make([]timetable.StopID, n),
		Starts:  make([]timetable.Time, n),
		Ends:    make([]timetable.Time, n),
	}
	for i := 0; i < n; i++ {
		wl.Sources[i] = timetable.StopID(rng.Intn(ds.TT.NumStops()))
		wl.Goals[i] = timetable.StopID(rng.Intn(ds.TT.NumStops()))
		if wl.Goals[i] == wl.Sources[i] {
			wl.Goals[i] = (wl.Goals[i] + 1) % timetable.StopID(ds.TT.NumStops())
		}
		wl.Starts[i] = min + timetable.Time(rng.Int63n(int64(span)/4))
		wl.Ends[i] = min + span - timetable.Time(rng.Int63n(int64(span)/4))
	}
	return wl
}

// MeasureQueries runs fn once per workload entry, one query after another
// (the paper's protocol), after a cold start and returns the average time per
// query: wall clock plus simulated device time. The cold start is
// DB.DropCaches: the buffer pool emptied and every read position forgotten,
// so on a handle opened by Workspace.Open, which has no vector cache, the
// first queries read their labels from the device.
func MeasureQueries(db *ptldb.DB, n int, fn func(i int) error) (time.Duration, error) {
	if err := db.DropCaches(); err != nil {
		return 0, err
	}
	db.ResetIOClock()
	st0, err := db.Stats()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	wall := time.Since(start)
	st1, err := db.Stats()
	if err != nil {
		return 0, err
	}
	return (wall + st1.SimulatedIO - st0.SimulatedIO) / time.Duration(n), nil
}
