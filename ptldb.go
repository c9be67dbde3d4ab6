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
// Typical flow — the writers take the directory, and a handle opened after
// them queries what they wrote:
//
//	tt, _ := ptldb.GenerateCity("Austin", 0.1, 1)      // or ptldb.LoadGTFS(dir)
//	db, _ := ptldb.Create("/tmp/austin", tt, ptldb.Config{})
//	arr, ok, _ := db.EarliestArrival(12, 87, 8*3600)
//	db.Close()
//	_ = ptldb.AddTargetSet("/tmp/austin", "base", "museums", []ptldb.StopID{4, 9, 23}, 16, ptldb.Config{})
//	db, _ = ptldb.Open("/tmp/austin", ptldb.Config{})
//	defer db.Close()
//	nearest, _ := db.EAKNN("museums", 12, 8*3600, 4)
//
// The heavy lifting lives in the internal packages: timetable (network
// model), gtfs (feed I/O), synth (city generator), order + ttl (Timetable
// Labeling), csa (Connection Scan oracle), sqldb (SQL engine with simulated
// storage devices) and core (the PTLDB tables and queries).
package ptldb

import (
	"fmt"
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
	// VectorCacheBytes sets the resident vector cache's byte budget: label
	// segments are decoded once into in-memory column vectors and served to
	// the fused executor as direct slice views. 0 selects
	// DefaultVectorCacheBytes; a negative value means no cache, every read
	// served from the segments. Admission is decided once per table, when
	// Open (or Create, which returns the directory opened) opens it, in
	// image order: a table is admitted while its vectors fit what the
	// tables before it left of the budget, and keeps its vectors; the rest
	// are declined and read from their segments. Sizing guidance: the sum
	// of every all-integer table's vectors keeps every table resident; a
	// table's vectors take 16 B per row, 8 B per BIGINT value, 4 B per array
	// element — a label's hubs kept as runs, 8 B per run — and 4 B per array
	// start (one per row and array column, plus one), which comes to about
	// 2.2 times the image's bytes on disk (Austin ×0.15: 7.15 MiB of vectors
	// from a 3.25 MiB image, as the benchmark's vcache.resident_mb and
	// storage.disk_bytes_seg read). It has no effect on query answers.
	// The directory writers (AddTargetSet, AddVersion, BuildPathTables)
	// ignore it.
	VectorCacheBytes int64
	// BuildWorkers bounds the preprocessing parallelism (default GOMAXPROCS):
	// TTL label construction runs rank-batched waves of this width, and the
	// table loads of Create and of the directory writers (AddTargetSet,
	// AddVersion, BuildPathTables) run on a worker pool of this size. The
	// built database is byte-identical for every value.
	BuildWorkers int
	// TraceHook, when non-nil, receives one Trace per successful query method
	// call on this handle (and on Version handles derived from it), and is
	// fixed for the handle's life. The hook runs synchronously on the
	// querying goroutine, so it must be cheap; see DB.Snapshot for always-on
	// aggregate counters that need no hook. A slow-query log is such a hook:
	// ptldb-query and ptldb-serve install internal/obs's SlowQueryLogger
	// here for -slow.
	TraceHook func(Trace)
}

// DefaultVectorCacheBytes is the vector-cache budget when Config leaves
// VectorCacheBytes zero: 256 MiB, enough to keep every label table of one
// paper-scale city resident (their decoded vectors are about 2.2 times their
// segments' bytes on disk, tens of MiB per city at the benchmark scales).
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

// DB is an open PTLDB database. It only reads: what it answers is the
// directory as Open found it. The writers — Create, AddTargetSet, AddVersion
// and BuildPathTables — take the directory, and a handle opened after them
// sees what they added; one opened before keeps its image.
type DB struct {
	store *core.Store
	db    *sqldb.DB
}

// Create preprocesses tt (TTL labels under the neighbor-degree vertex order,
// dummy-tuple augmentation, lout/lin tables) into a new database directory,
// made if it is missing, on a build handle of its own, closes that, and
// returns the directory opened with cfg, as Open would: a created handle
// serves what an opened one does, its tables admitted to the vector cache.
// Preprocessing time is the paper's Table 7 metric; see PreprocessStats for
// the breakdown.
func Create(dir string, tt *Network, cfg Config) (*DB, error) {
	db, _, err := CreateWithStats(dir, tt, cfg)
	return db, err
}

// PreprocessStats reports how Create spent its time and what it built.
type PreprocessStats struct {
	OrderTime   time.Duration `json:"order_ns"`
	LabelTime   time.Duration `json:"label_ns"`
	AugmentTime time.Duration `json:"augment_ns"`
	// LoadTime is the build's one Load — its tables encoded, written as the
	// image, synced and renamed into place — and the build handle's Close;
	// it stops before Create opens the directory.
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
	ord := order.ByNeighborDegree(tt)
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
	sdb, err := sqldb.Open(dir, sqldb.Options{Device: dev, PoolPages: cfg.PoolPages})
	if err != nil {
		return nil, stats, err
	}
	_, err = core.Build(sdb, labels, core.BuildOptions{
		BucketSeconds: cfg.BucketSeconds,
		Stops:         tt.Stops(),
		Workers:       cfg.BuildWorkers,
	})
	if cerr := sdb.Close(); err == nil {
		err = cerr
	}
	stats.LoadTime = time.Since(start)
	if err != nil {
		return nil, stats, err
	}
	db, err := Open(dir, cfg)
	return db, stats, err
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
	store, err := core.Open(sdb, cfg.TraceHook)
	if err != nil {
		sdb.Close()
		return nil, err
	}
	return &DB{store: store, db: sdb}, nil
}

// write opens dir on a build handle — cfg's device and pool, no vector
// budget — runs fn on the writer of the named timetable version and closes
// the handle. fn's tables are one Load, which commits them with one rename,
// so a failed fn leaves the directory as it was.
func write(dir, version string, cfg Config, fn func(*core.Writer) error) error {
	dev, err := cfg.device()
	if err != nil {
		return err
	}
	sdb, err := sqldb.Open(dir, sqldb.Options{Device: dev, PoolPages: cfg.PoolPages})
	if err != nil {
		return err
	}
	w, err := core.NewWriter(sdb, cfg.BuildWorkers).Version(version)
	if err == nil {
		err = fn(w)
	}
	if cerr := sdb.Close(); err == nil {
		err = cerr
	}
	return err
}

// AddTargetSet registers a named set of target stops (e.g. stops near
// points of interest) under the timetable version of the database in dir
// ("base" is the version Create loaded) and materializes its kNN and
// one-to-many tables for k up to kmax. A handle opened on dir afterwards
// answers queries on the set. A name the version already has is
// ErrInvalidArgument.
func AddTargetSet(dir, version, name string, targets []StopID, kmax int, cfg Config) error {
	return write(dir, version, cfg, func(w *core.Writer) error { return w.AddTargetSet(name, targets, kmax) })
}

// AddVersion loads a second timetable (e.g. the weekend schedule) into the
// database in dir as a named version with its own lout/lin tables — the
// paper's Section 3.1 approach to period-dependent timetables — labelled
// under the vertex order Create labels under. The network must have the same
// stops.
func AddVersion(dir, name string, tt *Network, cfg Config) error {
	labels := ttl.BuildParallel(tt, order.ByNeighborDegree(tt), cfg.BuildWorkers).Augment()
	return write(dir, core.BaseVersion, cfg, func(w *core.Writer) error { return w.AddVersion(name, labels) })
}

// BuildPathTables materializes the expanded journey of every label tuple of
// a timetable version of the database in dir into paths_out/paths_in
// tables, enabling JourneyFromDB. This implements the paper's Section 3.1
// suggestion of storing expanded paths in the database instead of the TTL
// pivot columns. The version's network must be supplied; expect
// preprocessing-scale running time.
func BuildPathTables(dir, version string, tt *Network, cfg Config) error {
	return write(dir, version, cfg, func(w *core.Writer) error { return w.BuildPathTables(tt) })
}

// Close closes the database.
func (d *DB) Close() error { return d.db.Close() }

// EarliestArrival answers EA(s, g, t): the earliest arrival at g over
// journeys leaving s no sooner than t. ok is false when no journey exists.
//
// A query from a stop to itself answers by the labels' dummy tuples, the
// times of the events at s that the labels record (paper Section 3.1), not
// by t itself: EA(s, s, t) is the earliest of them at or after t, so it may
// be later than t, and ok is false when there is none (the paper's example
// has EA(1, 1, 324) = 324 because stop 1 has an event at 324).
// LatestDeparture(s, s, t) is the latest of them at or before t, and
// ShortestDuration(s, s, t, tEnd) is 0 when one lies in [t, tEnd].
func (d *DB) EarliestArrival(s, g StopID, t Time) (arr Time, ok bool, err error) {
	return d.store.EarliestArrival(s, g, t)
}

// LatestDeparture answers LD(s, g, t): the latest departure from s arriving
// at g no later than t. For s == g see EarliestArrival: it is the latest
// recorded event time at s at or before t.
func (d *DB) LatestDeparture(s, g StopID, t Time) (dep Time, ok bool, err error) {
	return d.store.LatestDeparture(s, g, t)
}

// ShortestDuration answers SD(s, g, t, tEnd): the minimum journey duration
// within the window. For s == g see EarliestArrival: it is 0 when a recorded
// event time at s lies in [t, tEnd], and ok is false otherwise.
func (d *DB) ShortestDuration(s, g StopID, t, tEnd Time) (dur Time, ok bool, err error) {
	return d.store.ShortestDuration(s, g, t, tEnd)
}

// TargetSets lists the target sets registered under this DB's timetable
// version.
func (d *DB) TargetSets() map[string]core.TargetSetMeta {
	return d.store.TargetSets()
}

// Version returns a handle answering queries against the named timetable
// version ("base" is the version Create loaded). Handles share the
// underlying database and may be used concurrently.
func (d *DB) Version(name string) (*DB, error) {
	st, err := d.store.Version(name)
	if err != nil {
		return nil, err
	}
	return &DB{store: st, db: d.db}, nil
}

// Versions lists the available timetable versions.
func (d *DB) Versions() []string { return d.store.Versions() }

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

// DropCaches empties the buffer pool and forgets where the image was last
// read, emulating the paper's OS cache drop before each experiment. The
// resident vectors stay: Open decoded them, and a server restart is Close
// and Open again. The error is always nil; the signature keeps the callers
// that check it compiling.
func (d *DB) DropCaches() error {
	d.db.DropCaches()
	return nil
}

// Stats reports I/O statistics of the session. Buffer-pool hits and misses
// are counters of the registry: Snapshot().Pool.
type Stats struct {
	// SimulatedIO is the total simulated device time charged so far.
	SimulatedIO time.Duration
	// SizeOnDisk is the bytes of the directory's image, the database; a
	// file beside it is not counted.
	SizeOnDisk int64
}

// Stats returns the session's I/O statistics.
func (d *DB) Stats() (Stats, error) {
	size, err := d.db.SizeOnDisk()
	if err != nil {
		return Stats{}, err
	}
	return Stats{
		SimulatedIO: d.db.Clock().Elapsed(),
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
