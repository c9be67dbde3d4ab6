// Package core implements PTLDB (Public Transportation Labels on the
// DataBase), the paper's primary contribution: TTL hub labels stored in
// relational tables and queried with plain SQL.
//
// A Store wraps one database directory holding, per timetable version (the
// base version uses the paper's plain table names; named versions — paper
// Section 3.1's weekday/weekend sets — carry a __<version> suffix):
//
//   - lout, lin — one row per stop with the augmented label arrays (hubs,
//     tds, tas) sorted by (hub, t_d); primary key v (paper Section 3.1);
//   - per registered target set S: knn_naive_S (paper Section 3.2.1, Table 4;
//     read by the EA and the LD naive query alike), knn_ea_S / knn_ld_S
//     (Table 5) and otm_ea_S / otm_ld_S (Table 6);
//   - optionally stops (stop metadata) and paths_out / paths_in (expanded
//     journeys, paper Section 3.1's deployment suggestion);
//   - ptldb_meta — a single-row JSON blob with network metadata, versions
//     and the registered target sets.
//
// Every query method executes one of the paper's SQL Codes 1–4 against the
// embedded engine.
package core

import (
	"encoding/json"
	"fmt"
	"regexp"
	"sort"

	"ptldb/internal/obs"
	"ptldb/internal/sqldb"
	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/timetable"
	"ptldb/internal/ttl"
)

// DefaultBucketSeconds is the paper's grouping granularity for the knn_* and
// otm_* tables: one hour (Section 3.2.1 discusses the trade-off).
const DefaultBucketSeconds = 3600

// Meta is the store-level metadata persisted in the ptldb_meta table.
type Meta struct {
	Stops         int                     `json:"stops"`
	BucketSeconds int32                   `json:"bucket_seconds"`
	Versions      map[string]*VersionMeta `json:"versions"`
}

// BaseVersion names the timetable version created by Build. Its tables use
// the paper's plain names (lout, lin, knn_ea_<set>, ...); additional
// versions — the paper's weekday/weekend/holiday table sets of Section 3.1 —
// suffix every table with the version name.
const BaseVersion = "base"

// VersionMeta describes one timetable version (e.g. "base", "weekend").
type VersionMeta struct {
	MinTime    timetable.Time           `json:"min_time"`
	MaxTime    timetable.Time           `json:"max_time"`
	TargetSets map[string]TargetSetMeta `json:"target_sets"`
}

// TargetSetMeta describes one registered target set.
type TargetSetMeta struct {
	KMax    int     `json:"kmax"`
	Targets []int32 `json:"targets"`
}

// Result is one kNN or one-to-many answer: a target stop and the optimal
// criterion value (arrival time for EA queries, departure time for LD).
type Result struct {
	Stop timetable.StopID
	When timetable.Time
}

// Store is an open PTLDB database, bound to one timetable version (the base
// version unless Version was used).
type Store struct {
	DB      *sqldb.DB
	meta    Meta
	version string

	// workers is the table-load parallelism of Build/AddVersion/AddTargetSet
	// (0 = GOMAXPROCS).
	workers int

	// stmts is the statement table (stmts.go), one entry per version; every
	// Version view of the store shares it, as they share meta.Versions. ver
	// is the bound version's entry.
	stmts map[string]*versionStmts
	ver   *versionStmts

	// traceHook, when non-nil, receives one obs.Trace per successful query
	// method call (see SetTraceHook). Version copies the struct, so views
	// inherit the hook installed before binding.
	traceHook func(obs.Trace)
}

// vm returns the metadata of the bound version.
func (s *Store) vm() *VersionMeta { return s.meta.Versions[s.version] }

// SetBuildWorkers sets the table-load parallelism used by AddVersion and
// AddTargetSet (0 = GOMAXPROCS). Build-time parallelism is configured via
// BuildOptions.Workers instead. Per-table content and on-disk images do not
// depend on the worker count: tables are created serially and each load
// writes only its own table's files.
func (s *Store) SetBuildWorkers(n int) { s.workers = n }

// tableSuffix returns the version suffix of physical table names.
func (s *Store) tableSuffix() string {
	if s.version == BaseVersion {
		return ""
	}
	return "__" + s.version
}

// loutTable and linTable name the label tables of the bound version.
func (s *Store) loutTable() string { return "lout" + s.tableSuffix() }
func (s *Store) linTable() string  { return "lin" + s.tableSuffix() }

// setTable names a per-target-set auxiliary table of the bound version.
func (s *Store) setTable(prefix, set string) string { return prefix + "_" + set + s.tableSuffix() }

// Version returns a view of the store bound to the named timetable version.
// It prepares nothing: the view binds the version's entry in the statement
// table every view shares.
func (s *Store) Version(name string) (*Store, error) {
	if _, ok := s.meta.Versions[name]; !ok {
		return nil, invalidf("unknown version %q", name)
	}
	v := *s
	v.version, v.ver = name, s.stmts[name]
	return &v, nil
}

// Versions lists the available timetable versions.
func (s *Store) Versions() []string {
	out := make([]string, 0, len(s.meta.Versions))
	for v := range s.meta.Versions {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// AddVersion loads a second timetable's labels (e.g. the weekend schedule)
// as a new version: paper Section 3.1's "different versions of the lout and
// lin DB tables, for servicing each different period". The labels must
// cover the same stop set.
func (s *Store) AddVersion(name string, labels *ttl.Labels) error {
	if !setNameRE.MatchString(name) || name == BaseVersion {
		return fmt.Errorf("core: invalid version name %q", name)
	}
	if _, dup := s.meta.Versions[name]; dup {
		return fmt.Errorf("core: version %q already exists", name)
	}
	if labels.NumStops() != s.meta.Stops {
		return fmt.Errorf("core: version has %d stops, store has %d", labels.NumStops(), s.meta.Stops)
	}
	if !labels.Augmented {
		labels = labels.Clone().Augment()
	}
	vm := &VersionMeta{MinTime: timetable.Infinity, MaxTime: timetable.NegInfinity,
		TargetSets: map[string]TargetSetMeta{}}
	if err := loadLabelTables(s.DB, "__"+name, labels, vm, s.workers); err != nil {
		return err
	}
	if vm.MinTime == timetable.Infinity {
		vm.MinTime, vm.MaxTime = 0, 0
	}
	v := *s
	v.version = name
	if err := v.prepareVersion(); err != nil {
		return err
	}
	s.meta.Versions[name] = vm
	return s.saveMeta()
}

var setNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// BuildOptions configures Build.
type BuildOptions struct {
	// BucketSeconds is the knn/otm grouping granularity (default one hour).
	BucketSeconds int32
	// Stops, when non-nil, populates a stops(v, name, lat, lon) metadata
	// table so applications can resolve stop names and coordinates with
	// SQL.
	Stops []timetable.Stop
	// Workers bounds the table-load parallelism (0 = GOMAXPROCS). The
	// resulting database is identical for every value.
	Workers int
}

// Build creates the lout and lin tables from TTL labels inside an empty
// database, plus a stops metadata table when a timetable is supplied via
// BuildOptions. The labels are augmented with the paper's dummy tuples if
// they are not already.
func Build(db *sqldb.DB, labels *ttl.Labels, opts BuildOptions) (*Store, error) {
	if opts.BucketSeconds == 0 {
		opts.BucketSeconds = DefaultBucketSeconds
	}
	if opts.BucketSeconds < 0 {
		return nil, fmt.Errorf("core: negative bucket width")
	}
	if !labels.Augmented {
		labels = labels.Clone().Augment()
	}
	base := &VersionMeta{MinTime: timetable.Infinity, MaxTime: timetable.NegInfinity,
		TargetSets: map[string]TargetSetMeta{}}
	s := &Store{
		DB: db,
		meta: Meta{
			Stops:         labels.NumStops(),
			BucketSeconds: opts.BucketSeconds,
			Versions:      map[string]*VersionMeta{BaseVersion: base},
		},
		version: BaseVersion,
		workers: opts.Workers,
		stmts:   map[string]*versionStmts{},
	}
	// Tables are created serially (the catalog is shared state), then filled
	// on the worker pool: each load touches only its own table's files, so
	// the resulting database does not depend on the worker count.
	jobs, outRange, inRange, err := labelTableJobs(db, "", labels)
	if err != nil {
		return nil, err
	}
	if opts.Stops != nil {
		stopsTbl, err := db.CreateTable(sqldb.TableDef{
			Name: "stops",
			PK:   []string{"v"},
			Columns: []sqldb.ColumnDef{
				{Name: "v", Type: sqltypes.Int64},
				{Name: "name", Type: sqltypes.Text},
				{Name: "lat", Type: sqltypes.Float64},
				{Name: "lon", Type: sqltypes.Float64},
			},
		})
		if err != nil {
			return nil, err
		}
		stops := opts.Stops
		jobs = append(jobs, func() error { return loadStops(stopsTbl, stops) })
	}
	if err := runJobs(opts.Workers, jobs); err != nil {
		return nil, err
	}
	base.fold(*outRange)
	base.fold(*inRange)
	if base.MinTime == timetable.Infinity {
		base.MinTime, base.MaxTime = 0, 0
	}

	if _, err := db.CreateTable(sqldb.TableDef{
		Name: metaTable,
		PK:   []string{"id"},
		Columns: []sqldb.ColumnDef{
			{Name: "id", Type: sqltypes.Int64},
			{Name: "payload", Type: sqltypes.Text},
		},
	}); err != nil {
		return nil, err
	}
	if err := s.saveMeta(); err != nil {
		return nil, err
	}
	if err := s.prepareVersion(); err != nil {
		return nil, err
	}
	s.ver = s.stmts[BaseVersion]
	return s, nil
}

// timeRange is one load job's private (min, max) fold slot, merged into the
// version metadata after the pool drains — the jobs never share state.
type timeRange struct {
	min, max timetable.Time
}

// fold merges one load job's time range into the version metadata.
func (vm *VersionMeta) fold(r timeRange) {
	if r.min < vm.MinTime {
		vm.MinTime = r.min
	}
	if r.max > vm.MaxTime {
		vm.MaxTime = r.max
	}
}

// labelRunOrder is the run order every label table declares: hubs ascend; a
// hub's run is a Pareto antichain, ascending in departure and in arrival.
// Declared, it is validated by BulkLoad, the kernels search the runs instead
// of scanning them, and Open refuses a label table without it.
var labelRunOrder = []string{"hubs", "tds", "tas"}

// labelTableJobs creates one version's lout/lin tables and returns the two
// load jobs plus the time-range slots they fill.
func labelTableJobs(db *sqldb.DB, suffix string, labels *ttl.Labels) (jobs []func() error, out, in *timeRange, err error) {
	def := func(name string) sqldb.TableDef {
		return sqldb.TableDef{
			Name: name,
			PK:   []string{"v"},
			Columns: []sqldb.ColumnDef{
				{Name: "v", Type: sqltypes.Int64},
				{Name: "hubs", Type: sqltypes.IntArray},
				{Name: "tds", Type: sqltypes.IntArray},
				{Name: "tas", Type: sqltypes.IntArray},
			},
			RunOrder: labelRunOrder,
		}
	}
	loutTbl, err := db.CreateTable(def("lout" + suffix))
	if err != nil {
		return nil, nil, nil, err
	}
	linTbl, err := db.CreateTable(def("lin" + suffix))
	if err != nil {
		return nil, nil, nil, err
	}
	out, in = &timeRange{}, &timeRange{}
	jobs = []func() error{
		func() error { return loadLabelSide(loutTbl, labels.Out, out) },
		func() error { return loadLabelSide(linTbl, labels.In, in) },
	}
	return jobs, out, in, nil
}

// loadLabelTables creates and fills one version's lout/lin tables on the
// worker pool, folding the label time range into vm.
func loadLabelTables(db *sqldb.DB, suffix string, labels *ttl.Labels, vm *VersionMeta, workers int) error {
	jobs, out, in, err := labelTableJobs(db, suffix, labels)
	if err != nil {
		return err
	}
	if err := runJobs(workers, jobs); err != nil {
		return err
	}
	vm.fold(*out)
	vm.fold(*in)
	return nil
}

// loadLabelSide bulk-loads one label side into its table: the rows are
// already in ascending primary-key (stop id) order, so a rejected row's index
// is its stop. The table declares its run order and BulkLoad alone checks it:
// a label in any other order is its error, naming the position.
func loadLabelSide(tbl *sqldb.Table, side [][]ttl.Tuple, r *timeRange) error {
	r.min, r.max = timetable.Infinity, timetable.NegInfinity
	rows := make([]sqltypes.Row, len(side))
	for v, label := range side {
		hubs := make([]int64, len(label))
		tds := make([]int64, len(label))
		tas := make([]int64, len(label))
		for i, t := range label {
			hubs[i], tds[i], tas[i] = int64(t.Hub), int64(t.Dep), int64(t.Arr)
			if t.Dep < r.min {
				r.min = t.Dep
			}
			if t.Arr > r.max {
				r.max = t.Arr
			}
		}
		rows[v] = sqltypes.Row{
			sqltypes.NewInt(int64(v)),
			sqltypes.NewIntArray(hubs),
			sqltypes.NewIntArray(tds),
			sqltypes.NewIntArray(tas),
		}
	}
	if err := tbl.BulkLoad(rows); err != nil {
		return fmt.Errorf("core: load %s (row = stop id): %w", tbl.Def().Name, err)
	}
	return nil
}

// loadStops bulk-loads the stops metadata table in ascending id order.
func loadStops(tbl *sqldb.Table, stops []timetable.Stop) error {
	sorted := append([]timetable.Stop(nil), stops...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	rows := make([]sqltypes.Row, len(sorted))
	for i, stop := range sorted {
		rows[i] = sqltypes.Row{
			sqltypes.NewInt(int64(stop.ID)),
			sqltypes.NewText(stop.Name),
			sqltypes.NewFloat(stop.Lat),
			sqltypes.NewFloat(stop.Lon),
		}
	}
	return tbl.BulkLoad(rows)
}

// Open attaches to a previously built PTLDB database.
func Open(db *sqldb.DB) (*Store, error) {
	tbl, ok := db.Table(metaTable)
	if !ok {
		return nil, fmt.Errorf("core: not a PTLDB database: no %s table", metaTable)
	}
	row, found, err := tbl.LookupPK([]int64{0})
	if err != nil {
		return nil, fmt.Errorf("core: not a PTLDB database: %w", err)
	}
	if !found {
		return nil, fmt.Errorf("core: %s has no row 0", metaTable)
	}
	var meta Meta
	if err := json.Unmarshal([]byte(row[1].S), &meta); err != nil {
		return nil, fmt.Errorf("core: corrupt meta: %w", err)
	}
	if meta.Versions[BaseVersion] == nil {
		return nil, fmt.Errorf("core: corrupt meta: no %q version", BaseVersion)
	}
	s := &Store{DB: db, meta: meta, version: BaseVersion, stmts: map[string]*versionStmts{}}
	// Every version enters the statement table with every set it has.
	// Preparing a statement binds it to its tables and checks they declare
	// what its kernel trusts, so a directory built before a declaration
	// existed is refused here, naming the table, like every other old image.
	for _, name := range s.Versions() {
		v := *s
		v.version = name
		if err := v.prepareVersion(); err != nil {
			return nil, err
		}
		for set, ts := range v.vm().TargetSets {
			if err := v.prepareSet(set, ts.KMax); err != nil {
				return nil, err
			}
		}
	}
	s.ver = s.stmts[BaseVersion]
	return s, nil
}

// Meta returns the store metadata.
func (s *Store) Meta() Meta { return s.meta }

// TargetSet returns the metadata of a target set registered under the bound
// version.
func (s *Store) TargetSet(name string) (TargetSetMeta, bool) {
	ts, ok := s.vm().TargetSets[name]
	return ts, ok
}

// TargetSets returns the target sets of the bound version.
func (s *Store) TargetSets() map[string]TargetSetMeta { return s.vm().TargetSets }

// metaTable is the one-row table (id 0, JSON payload) holding Meta.
const metaTable = "ptldb_meta"

// saveMeta rewrites the meta table with the store's current metadata: a bulk
// load of its one row, which replaces the table's file atomically.
func (s *Store) saveMeta() error {
	blob, err := json.Marshal(s.meta)
	if err != nil {
		return err
	}
	tbl, ok := s.DB.Table(metaTable)
	if !ok {
		return fmt.Errorf("core: %s table missing", metaTable)
	}
	return tbl.BulkLoad([]sqltypes.Row{{sqltypes.NewInt(0), sqltypes.NewText(string(blob))}})
}

// Stop returns the stored metadata of one stop (requires the stops table).
func (s *Store) Stop(v timetable.StopID) (timetable.Stop, bool, error) {
	tbl, ok := s.DB.Table("stops")
	if !ok {
		return timetable.Stop{}, false, fmt.Errorf("core: stops table not built")
	}
	row, found, err := tbl.LookupPK([]int64{int64(v)})
	if err != nil || !found {
		return timetable.Stop{}, false, err
	}
	return timetable.Stop{
		ID:   timetable.StopID(row[0].I),
		Name: row[1].S,
		Lat:  row[2].F,
		Lon:  row[3].F,
	}, true, nil
}

// hour returns the bucket index of t under the store's bucket width. Floor
// division, matching timetable.Time.Hour and the FLOOR(x/width.0) bucket
// expressions of the condensed SQL: negative timestamps belong to the bucket
// below zero.
func (s *Store) hour(t timetable.Time) int64 {
	return timetable.FloorDiv(int64(t), int64(s.meta.BucketSeconds))
}

// sortedCopy returns targets sorted ascending with duplicates removed.
func sortedCopy(targets []timetable.StopID) []timetable.StopID {
	out := append([]timetable.StopID(nil), targets...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	dedup := out[:0]
	for i, v := range out {
		if i == 0 || v != out[i-1] {
			dedup = append(dedup, v)
		}
	}
	return dedup
}
