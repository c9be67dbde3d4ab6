// Package ptldb is the public face of this repository: a from-scratch Go
// reproduction of "Scalable Public Transportation Queries on the Database"
// (Efentakis, EDBT 2016).
//
// PTLDB answers Earliest-Arrival (EA), Latest-Departure (LD) and
// Shortest-Duration (SD) point queries, EA/LD k-Nearest-Neighbor queries and
// EA/LD one-to-many queries on schedule-based public-transportation
// networks, entirely through SQL over hub-label tables stored in an embedded
// relational engine (the stand-in for the paper's PostgreSQL).
//
// Typical flow:
//
//	tt, _ := ptldb.GenerateCity("Austin", 0.1, 1)      // or ptldb.LoadGTFS(dir)
//	db, _ := ptldb.Create("/tmp/austin", tt, ptldb.Config{})
//	defer db.Close()
//	arr, ok, _ := db.EarliestArrival(12, 87, 8*3600)
//	_ = db.AddTargetSet("museums", []ptldb.StopID{4, 9, 23}, 16)
//	nearest, _ := db.EAKNN("museums", 12, 8*3600, 4)
//
// The heavy lifting lives in the internal packages: timetable (network
// model), gtfs (feed I/O), synth (city generator), order + ttl (Timetable
// Labeling), csa (Connection Scan oracle), sqldb (SQL engine with simulated
// storage devices) and core (the PTLDB tables and queries).
package ptldb

import (
	"fmt"
	"io"
	"os"
	"time"

	"ptldb/internal/core"
	"ptldb/internal/csa"
	"ptldb/internal/gtfs"
	"ptldb/internal/obs"
	"ptldb/internal/order"
	"ptldb/internal/sqldb"
	"ptldb/internal/sqldb/storage"
	"ptldb/internal/synth"
	"ptldb/internal/timetable"
	"ptldb/internal/ttl"
)

// Re-exported model types.
type (
	// StopID identifies a stop; Time is seconds after midnight.
	StopID = timetable.StopID
	// Time is a timestamp in seconds relative to the service-day start.
	Time = timetable.Time
	// Network is a schedule-based transportation network.
	Network = timetable.Timetable
	// Connection is one elementary vehicle movement.
	Connection = timetable.Connection
	// Result is one kNN / one-to-many answer.
	Result = core.Result
	// Trace describes one executed query (see Config.TraceHook).
	Trace = obs.Trace
	// Snapshot is a point-in-time copy of the observability counters (see
	// DB.Snapshot).
	Snapshot = obs.Snapshot
	// CityProfile describes a synthetic dataset modelled on the paper's
	// Table 7.
	CityProfile = synth.Profile
)

// Infinity is a timestamp greater than every reachable arrival.
const Infinity = timetable.Infinity

// ErrInvalidArgument marks query-surface errors caused by the caller's
// arguments — an out-of-range stop id, an unknown target set, version or
// explain name, a k outside the set's materialized range — as opposed to
// internal failures. Test with errors.Is or IsInvalidArgument; ptldb-serve
// maps the distinction to HTTP 400 vs 500.
var ErrInvalidArgument = core.ErrInvalidArgument

// IsInvalidArgument reports whether err is a caller mistake on the query
// surface (see ErrInvalidArgument).
func IsInvalidArgument(err error) bool { return core.IsInvalidArgument(err) }

// Profiles lists the eleven synthetic city profiles of the paper's Table 7.
func Profiles() []CityProfile { return synth.Profiles }

// GenerateCity builds the synthetic network for one of the paper's datasets
// at the given scale (1.0 = the published |V| and |E|).
func GenerateCity(name string, scale float64, seed int64) (*Network, error) {
	p, err := synth.ProfileByName(name)
	if err != nil {
		return nil, err
	}
	return synth.Generate(p, synth.Options{Scale: scale, Seed: seed}), nil
}

// LoadGTFS reads a GTFS directory into a network. The second result is the
// number of degenerate (non-positive-duration) connections skipped.
func LoadGTFS(dir string) (*Network, int, error) {
	feed, err := gtfs.Load(dir)
	if err != nil {
		return nil, 0, err
	}
	return feed.Timetable()
}

// Config tunes database creation and opening.
type Config struct {
	// Device selects the simulated storage device: "hdd", "ssd" (default)
	// or "ram".
	Device string
	// PoolPages is the buffer-pool size in 8 KiB pages (default 131072).
	PoolPages int
	// BucketSeconds is the kNN/one-to-many grouping granularity
	// (default 3600, the paper's one-hour buckets).
	BucketSeconds int32
	// Ordering selects the TTL vertex order: "neighbor-degree" (default),
	// "degree", "hub-usage" (sampled-journey betweenness, slower to compute
	// but usually smallest labels) or "random".
	Ordering string
	// Seed feeds the "random" ordering.
	Seed int64
	// VectorCacheBytes sets the resident vector cache's byte budget: label
	// segments are decoded once into in-memory column vectors and served to
	// the fused executor as direct slice views. 0 selects
	// DefaultVectorCacheBytes; a negative value means no cache, every read
	// served from the segments. Admission is decided once per table, at open,
	// in catalog order: a table is admitted while its vectors fit what the
	// tables before it left of the budget, and keeps its share; the rest are
	// declined and read from their segments. Sizing guidance: the sum of
	// every all-integer table's vectors (roughly the .seg bytes on disk)
	// keeps every table resident. It has no effect on query answers.
	VectorCacheBytes int64
	// BuildWorkers bounds the preprocessing parallelism (default GOMAXPROCS):
	// TTL label construction runs rank-batched waves of this width, and the
	// table loads of Create / AddTargetSet / AddVersion run on a worker pool
	// of this size. The built database is byte-identical for every value.
	BuildWorkers int
	// TraceHook, when non-nil, receives one Trace per successful query method
	// call on this handle (and on Version handles derived from it). The hook
	// runs synchronously on the querying goroutine, so it must be cheap; see
	// DB.Snapshot for always-on aggregate counters that need no hook.
	TraceHook func(Trace)
	// SlowQueryThreshold, when positive, logs every query slower than the
	// threshold to SlowQueryLog — one line per offender with its code,
	// execution path, wall time, row count and pages read.
	SlowQueryThreshold time.Duration
	// SlowQueryLog is the slow-query destination (default os.Stderr). Only
	// consulted when SlowQueryThreshold > 0.
	SlowQueryLog io.Writer
}

// traceHook composes the user hook and the slow-query logger into the single
// hook installed on the store (nil when neither is configured).
func (c Config) traceHook() func(obs.Trace) {
	hook := c.TraceHook
	if c.SlowQueryThreshold <= 0 {
		return hook
	}
	w := c.SlowQueryLog
	if w == nil {
		w = os.Stderr
	}
	slow := obs.NewSlowQueryLogger(w, c.SlowQueryThreshold)
	if hook == nil {
		return slow.Observe
	}
	user := hook
	return func(t obs.Trace) {
		slow.Observe(t)
		user(t)
	}
}

// DefaultVectorCacheBytes is the vector-cache budget when Config leaves
// VectorCacheBytes zero: 256 MiB, enough to keep every label table of one
// paper-scale city resident (their decoded vectors are close to the .seg
// bytes on disk, tens of MiB per city at the benchmark scales).
const DefaultVectorCacheBytes = 256 << 20

// vcacheBytes resolves the effective vector-cache budget: the default when
// unset; negative (no cache) passes through.
func (c Config) vcacheBytes() int64 {
	if c.VectorCacheBytes == 0 {
		return DefaultVectorCacheBytes
	}
	return c.VectorCacheBytes
}

func (c Config) device() (storage.DeviceModel, error) {
	switch c.Device {
	case "", "ssd":
		return storage.SSD, nil
	case "hdd":
		return storage.HDD, nil
	case "ram":
		return storage.RAM, nil
	default:
		return storage.DeviceModel{}, fmt.Errorf("ptldb: unknown device %q (want hdd, ssd or ram)", c.Device)
	}
}

// DB is an open PTLDB database.
type DB struct {
	store *core.Store
	db    *sqldb.DB
	// buildWorkers is the Config.BuildWorkers this handle was opened with;
	// AddVersion builds its labels at the same parallelism.
	buildWorkers int
}

// Create preprocesses tt (TTL labels under the configured vertex order,
// dummy-tuple augmentation, lout/lin tables) into a new database directory
// and returns it opened. Preprocessing time is the paper's Table 7 metric;
// see PreprocessStats for the breakdown.
func Create(dir string, tt *Network, cfg Config) (*DB, error) {
	db, _, err := CreateWithStats(dir, tt, cfg)
	return db, err
}

// PreprocessStats reports how Create spent its time and what it built.
type PreprocessStats struct {
	OrderTime     time.Duration `json:"order_ns"`
	LabelTime     time.Duration `json:"label_ns"`
	AugmentTime   time.Duration `json:"augment_ns"`
	LoadTime      time.Duration `json:"load_ns"`
	LabelTuples   int           `json:"label_tuples"` // before augmentation
	DummyTuples   int           `json:"dummy_tuples"`
	TuplesPerStop int           `json:"tuples_per_stop"` // |HL|/|V| after label construction, the Table 7 metric
	// Labels counts the work inside LabelTime: profile searches, tentative
	// and cross-pruned tuples, cover checks and the hub runs they probed.
	// Exact, and the same for every build of one network at one
	// Config.BuildWorkers.
	Labels LabelBuildStats `json:"labels"`
}

// LabelBuildStats are the label construction's work counters.
type LabelBuildStats = ttl.BuildStats

// CreateWithStats is Create returning the preprocessing breakdown.
func CreateWithStats(dir string, tt *Network, cfg Config) (*DB, PreprocessStats, error) {
	var stats PreprocessStats
	dev, err := cfg.device()
	if err != nil {
		return nil, stats, err
	}

	start := time.Now()
	var ord order.Order
	switch cfg.Ordering {
	case "", "neighbor-degree":
		ord = order.ByNeighborDegree(tt)
	case "degree":
		ord = order.ByDegree(tt)
	case "hub-usage":
		samples := tt.NumStops() / 10
		if samples < 32 {
			samples = 32
		}
		ord = order.ByHubUsage(tt, samples, cfg.Seed)
	case "random":
		ord = order.Random(tt.NumStops(), cfg.Seed)
	default:
		return nil, stats, fmt.Errorf("ptldb: unknown ordering %q", cfg.Ordering)
	}
	stats.OrderTime = time.Since(start)

	start = time.Now()
	labels, labelStats := ttl.BuildWithStats(tt, ord, cfg.BuildWorkers)
	stats.LabelTime = time.Since(start)
	stats.Labels = labelStats
	stats.LabelTuples = labels.NumTuples()
	stats.TuplesPerStop = labels.TuplesPerStop()

	start = time.Now()
	labels.Augment()
	stats.AugmentTime = time.Since(start)
	stats.DummyTuples = labels.NumDummies()

	start = time.Now()
	sdb, err := sqldb.Open(dir, sqldb.Options{
		Device: dev, PoolPages: cfg.PoolPages, VectorCacheBytes: cfg.vcacheBytes(),
	})
	if err != nil {
		return nil, stats, err
	}
	store, err := core.Build(sdb, labels, core.BuildOptions{
		BucketSeconds: cfg.BucketSeconds,
		Stops:         tt.Stops(),
		Workers:       cfg.BuildWorkers,
	})
	if err != nil {
		sdb.Close()
		return nil, stats, err
	}
	if err := sdb.Flush(); err != nil {
		sdb.Close()
		return nil, stats, err
	}
	stats.LoadTime = time.Since(start)
	if h := cfg.traceHook(); h != nil {
		store.SetTraceHook(h)
	}
	return &DB{store: store, db: sdb, buildWorkers: cfg.BuildWorkers}, stats, nil
}

// Open attaches to a database directory previously built with Create,
// selecting the (possibly different) simulated device for this session —
// the paper benchmarks the same data on an HDD and an SSD.
func Open(dir string, cfg Config) (*DB, error) { return open(dir, cfg, false) }

// open is Open; reference selects the general executor for every statement
// (sqldb.Options.ReferenceExec) — the handle the tests compare answers with.
func open(dir string, cfg Config, reference bool) (*DB, error) {
	dev, err := cfg.device()
	if err != nil {
		return nil, err
	}
	sdb, err := sqldb.Open(dir, sqldb.Options{
		Device: dev, PoolPages: cfg.PoolPages, VectorCacheBytes: cfg.vcacheBytes(),
		ReferenceExec: reference,
	})
	if err != nil {
		return nil, err
	}
	store, err := core.Open(sdb)
	if err != nil {
		sdb.Close()
		return nil, err
	}
	store.SetBuildWorkers(cfg.BuildWorkers)
	if h := cfg.traceHook(); h != nil {
		store.SetTraceHook(h)
	}
	return &DB{store: store, db: sdb, buildWorkers: cfg.BuildWorkers}, nil
}

// Close flushes and closes the database.
func (d *DB) Close() error { return d.db.Close() }

// EarliestArrival answers EA(s, g, t): the earliest arrival at g over
// journeys leaving s no sooner than t. ok is false when no journey exists.
func (d *DB) EarliestArrival(s, g StopID, t Time) (arr Time, ok bool, err error) {
	return d.store.EarliestArrival(s, g, t)
}

// LatestDeparture answers LD(s, g, t): the latest departure from s arriving
// at g no later than t.
func (d *DB) LatestDeparture(s, g StopID, t Time) (dep Time, ok bool, err error) {
	return d.store.LatestDeparture(s, g, t)
}

// ShortestDuration answers SD(s, g, t, tEnd): the minimum journey duration
// within the window.
func (d *DB) ShortestDuration(s, g StopID, t, tEnd Time) (dur Time, ok bool, err error) {
	return d.store.ShortestDuration(s, g, t, tEnd)
}

// AddTargetSet registers a named set of target stops (e.g. stops near
// points of interest) and materializes the kNN and one-to-many tables for k
// up to kmax.
func (d *DB) AddTargetSet(name string, targets []StopID, kmax int) error {
	if err := d.store.AddTargetSet(name, targets, kmax); err != nil {
		return err
	}
	return d.db.Flush()
}

// TargetSets lists the target sets registered under this DB's timetable
// version.
func (d *DB) TargetSets() map[string]core.TargetSetMeta {
	return d.store.TargetSets()
}

// AddVersion loads a second timetable (e.g. the weekend schedule) as a named
// version with its own lout/lin tables — the paper's Section 3.1 approach to
// period-dependent timetables. The network must have the same stops.
func (d *DB) AddVersion(name string, tt2 *Network) error {
	labels := ttl.BuildParallel(tt2, order.ByNeighborDegree(tt2), d.buildWorkers).Augment()
	if err := d.store.AddVersion(name, labels); err != nil {
		return err
	}
	return d.db.Flush()
}

// Version returns a handle answering queries against the named timetable
// version ("base" is the version Create loaded). Handles share the
// underlying database and may be used concurrently.
func (d *DB) Version(name string) (*DB, error) {
	st, err := d.store.Version(name)
	if err != nil {
		return nil, err
	}
	return &DB{store: st, db: d.db, buildWorkers: d.buildWorkers}, nil
}

// Versions lists the available timetable versions.
func (d *DB) Versions() []string { return d.store.Versions() }

// BuildPathTables materializes the expanded journey of every label tuple
// into paths_out/paths_in tables, enabling JourneyFromDB. This implements
// the paper's Section 3.1 suggestion of storing expanded paths in the
// database instead of the TTL pivot columns. The original network must be
// supplied; expect preprocessing-scale running time.
func (d *DB) BuildPathTables(tt *Network) error {
	if err := d.store.BuildPathTables(tt); err != nil {
		return err
	}
	return d.db.Flush()
}

// JourneyFromDB answers EA(s, g, t) and reconstructs the itinerary's stop
// and trip sequence entirely from database tables (one witness query plus at
// most two path lookups). Requires BuildPathTables. The reported departure
// is the label's guaranteed departure; the first physical boarding may be
// slightly later when waiting at s is optimal.
func (d *DB) JourneyFromDB(s, g StopID, t Time) (core.DBJourney, bool, error) {
	return d.store.EarliestArrivalJourneyDB(s, g, t)
}

// EAKNN answers EA-kNN(q, T, t, k): the k target stops of set reachable
// from q (departing >= t) with the earliest arrivals.
func (d *DB) EAKNN(set string, q StopID, t Time, k int) ([]Result, error) {
	return d.store.EAKNN(set, q, t, k)
}

// LDKNN answers LD-kNN(q, T, t, k): the k target stops with the latest
// feasible departures from q arriving by t.
func (d *DB) LDKNN(set string, q StopID, t Time, k int) ([]Result, error) {
	return d.store.LDKNN(set, q, t, k)
}

// EAKNNNaive runs the paper's unoptimized Code 2 baseline.
func (d *DB) EAKNNNaive(set string, q StopID, t Time, k int) ([]Result, error) {
	return d.store.EAKNNNaive(set, q, t, k)
}

// LDKNNNaive runs the LD analogue of the Code 2 baseline.
func (d *DB) LDKNNNaive(set string, q StopID, t Time, k int) ([]Result, error) {
	return d.store.LDKNNNaive(set, q, t, k)
}

// EAOTM answers EA-OTM(q, T, t): the earliest arrival at every reachable
// target of the set.
func (d *DB) EAOTM(set string, q StopID, t Time) ([]Result, error) {
	return d.store.EAOTM(set, q, t)
}

// LDOTM answers LD-OTM(q, T, t): the latest departure toward every target
// reachable by t.
func (d *DB) LDOTM(set string, q StopID, t Time) ([]Result, error) {
	return d.store.LDOTM(set, q, t)
}

// DropCaches empties the buffer pool and forgets where every table file was
// last read, emulating the paper's OS cache drop before each experiment. The
// resident vectors stay: Open decoded them, and a server restart is Close
// and Open again. It fails, dropping nothing, while a pool page is pinned.
func (d *DB) DropCaches() error { return d.db.DropCaches() }

// Stats reports I/O statistics of the session.
type Stats struct {
	// SimulatedIO is the total simulated device time charged so far.
	SimulatedIO time.Duration
	// CacheHits and CacheMisses count buffer-pool accesses.
	CacheHits, CacheMisses uint64
	// SizeOnDisk is the total bytes of all table files.
	SizeOnDisk int64
}

// Stats returns the session's I/O statistics.
func (d *DB) Stats() (Stats, error) {
	pm := d.db.Pool().Metrics()
	size, err := d.db.SizeOnDisk()
	if err != nil {
		return Stats{}, err
	}
	return Stats{
		SimulatedIO: d.db.Clock().Elapsed(),
		CacheHits:   pm.Hits.Load(),
		CacheMisses: pm.Misses.Load(),
		SizeOnDisk:  size,
	}, nil
}

// ResetIOClock zeroes the simulated-device clock (used around measured
// query batches).
func (d *DB) ResetIOClock() { d.db.Clock().Reset() }

// Snapshot returns a point-in-time copy of the observability counters:
// buffer-pool traffic, executor dispatch and scan volumes, and per-query-code
// call counts with latency histograms. Counters accumulate from Open/Create
// and are shared across Version handles of the same database.
func (d *DB) Snapshot() Snapshot { return d.db.Registry().Snapshot() }

// ExplainPrepared renders the operator tree one of the paper's prepared
// queries executes with: "v2v-ea", "v2v-ld", "v2v-sd", or
// "<kind>:<set>" with kind one of knn-naive-ea, knn-naive-ld, knn-ea,
// knn-ld, otm-ea, otm-ld. Every one of them runs fused, so the tree is the
// fused operator tree; a statement without a fused plan is an error.
func (d *DB) ExplainPrepared(name string) (string, error) {
	return d.store.ExplainPrepared(name)
}

// ExplainNames lists the names ExplainPrepared accepts for this handle's
// timetable version and registered target sets.
func (d *DB) ExplainNames() []string { return d.store.ExplainNames() }

// Store exposes the underlying PTLDB store for advanced use (raw SQL, table
// inspection).
func (d *DB) Store() *core.Store { return d.store }

// Stop resolves a stop's stored metadata (name, coordinates) from the
// database's stops table.
func (d *DB) Stop(v StopID) (timetable.Stop, bool, error) { return d.store.Stop(v) }

// Journey is a reconstructed itinerary.
type Journey struct {
	Legs      []Connection
	Transfers int
}

// EarliestArrivalJourney reconstructs a concrete EA-optimal itinerary on the
// original network (PTLDB stores timestamps only; the paper suggests storing
// expanded paths in the database for this purpose).
func EarliestArrivalJourney(tt *Network, s, g StopID, t Time) (Journey, bool) {
	legs, ok := csa.EarliestArrivalJourney(tt, s, g, t)
	if !ok {
		return Journey{}, false
	}
	return Journey{Legs: legs, Transfers: csa.Transfers(legs)}, true
}

// LatestDepartureJourney reconstructs a concrete LD-optimal itinerary.
func LatestDepartureJourney(tt *Network, s, g StopID, t Time) (Journey, bool) {
	legs, ok := csa.LatestDepartureJourney(tt, s, g, t)
	if !ok {
		return Journey{}, false
	}
	return Journey{Legs: legs, Transfers: csa.Transfers(legs)}, true
}
