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
// version unless Version was used). Open is its one constructor, and it
// only reads: its metadata, its statement table and its trace hook are
// complete when Open returns, and nothing assigns to them after. A Writer
// adds tables; a Store opened after the writes queries them.
type Store struct {
	DB *sqldb.DB
	view

	// stmts is the statement table (stmts.go), one entry per version; every
	// Version view of the store shares it, as they share meta.Versions. ver
	// is the bound version's entry.
	stmts map[string]*versionStmts
	ver   *versionStmts

	// hook, when non-nil, receives one obs.Trace per successful query
	// method call (observe.go). Open sets it and nothing changes it after;
	// Version copies the struct, so every view delivers to it.
	hook func(obs.Trace)
}

// view is the metadata of a database bound to one of its timetable
// versions: the table names and the bucket arithmetic a Store's queries and
// a Writer's loads share.
type view struct {
	meta    Meta
	version string
}

// vm returns the metadata of the bound version.
func (v view) vm() *VersionMeta { return v.meta.Versions[v.version] }

// tableSuffix returns the version suffix of physical table names.
func (v view) tableSuffix() string {
	if v.version == BaseVersion {
		return ""
	}
	return "__" + v.version
}

// loutTable and linTable name the label tables of the bound version.
func (v view) loutTable() string { return "lout" + v.tableSuffix() }
func (v view) linTable() string  { return "lin" + v.tableSuffix() }

// setTable names a per-target-set auxiliary table of the bound version.
func (v view) setTable(prefix, set string) string { return prefix + "_" + set + v.tableSuffix() }

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
func (s *Store) Versions() []string { return s.meta.versionNames() }

// versionNames lists the versions of m, sorted.
func (m Meta) versionNames() []string {
	out := make([]string, 0, len(m.Versions))
	for v := range m.Versions {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Writer adds tables to a PTLDB database: target sets, timetable versions
// and path tables, after Build's lout, lin and stops. It holds no metadata
// of its own: each call reads the meta row, as Open does, and loads its
// tables together with the meta row naming them, so the database is the one
// copy of the metadata. A writer prepares nothing; a Store opened on the
// database after the writes queries what they added.
type Writer struct {
	db      *sqldb.DB
	version string
	// workers is the table-load parallelism (0 = GOMAXPROCS). Per-table
	// content and on-disk images do not depend on it: each load encodes only
	// its own table's segment, and the image orders the segments by name.
	workers int
}

// NewWriter returns a writer of the base version of the PTLDB database in
// db, loading tables on up to workers goroutines (0 = GOMAXPROCS).
func NewWriter(db *sqldb.DB, workers int) *Writer {
	return &Writer{db: db, version: BaseVersion, workers: workers}
}

// Version returns a writer bound to the named timetable version: its target
// sets and path tables are that version's.
func (w *Writer) Version(name string) (*Writer, error) {
	if _, err := w.view(name); err != nil {
		return nil, err
	}
	return &Writer{db: w.db, version: name, workers: w.workers}, nil
}

// view reads the meta row and binds it to the named version.
func (w *Writer) view(version string) (view, error) {
	meta, err := readMeta(w.db)
	if err != nil {
		return view{}, err
	}
	if meta.Versions[version] == nil {
		return view{}, invalidf("unknown version %q", version)
	}
	return view{meta: meta, version: version}, nil
}

// AddVersion loads a second timetable's labels (e.g. the weekend schedule)
// as a new version: paper Section 3.1's "different versions of the lout and
// lin DB tables, for servicing each different period". The labels must
// cover the same stop set. The version's tables and the meta row naming it
// are one Load: a failed one leaves the database as it was.
func (w *Writer) AddVersion(name string, labels *ttl.Labels) error {
	if !setNameRE.MatchString(name) || name == BaseVersion {
		return fmt.Errorf("core: invalid version name %q", name)
	}
	meta, err := readMeta(w.db)
	if err != nil {
		return err
	}
	if _, dup := meta.Versions[name]; dup {
		return fmt.Errorf("core: version %q already exists", name)
	}
	if labels.NumStops() != meta.Stops {
		return fmt.Errorf("core: version has %d stops, store has %d", labels.NumStops(), meta.Stops)
	}
	if !labels.Augmented {
		labels = labels.Clone().Augment()
	}
	meta.Versions[name] = newVersionMeta(labels)
	if err := w.db.Load(w.workers, append(labelLoads("__"+name, labels), meta.load())...); err != nil {
		return fmt.Errorf("core: load labels (a lout / lin row = stop id): %w", err)
	}
	return nil
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
// BuildOptions, and returns the writer of its base version. The labels are
// augmented with the paper's dummy tuples if they are not already. A
// database that already holds tables is refused: a load would replace those
// of the new build's names and keep the rest, such as another build's path
// and target-set tables.
func Build(db *sqldb.DB, labels *ttl.Labels, opts BuildOptions) (*Writer, error) {
	if n := len(db.Tables()); n != 0 {
		return nil, fmt.Errorf("core: the database already holds %d tables; build into an empty directory", n)
	}
	if opts.BucketSeconds == 0 {
		opts.BucketSeconds = DefaultBucketSeconds
	}
	if opts.BucketSeconds < 0 {
		return nil, fmt.Errorf("core: negative bucket width")
	}
	if !labels.Augmented {
		labels = labels.Clone().Augment()
	}
	meta := Meta{
		Stops:         labels.NumStops(),
		BucketSeconds: opts.BucketSeconds,
		Versions:      map[string]*VersionMeta{BaseVersion: newVersionMeta(labels)},
	}
	// The tables and the meta row describing them are one Load: each table
	// is computed and encoded on the worker pool into its own segment, and
	// the image orders the segments by name, so the resulting database does
	// not depend on the worker count.
	loads := labelLoads("", labels)
	if opts.Stops != nil {
		loads = append(loads, stopsLoad(opts.Stops))
	}
	if err := db.Load(opts.Workers, append(loads, meta.load())...); err != nil {
		return nil, fmt.Errorf("core: load labels (a lout / lin row = stop id): %w", err)
	}
	return NewWriter(db, opts.Workers), nil
}

// newVersionMeta is the metadata of a version with labels and no target set
// yet: the earliest departure and the latest arrival of any tuple, 0 and 0
// when the labels hold none.
func newVersionMeta(labels *ttl.Labels) *VersionMeta {
	vm := &VersionMeta{MinTime: timetable.Infinity, MaxTime: timetable.NegInfinity,
		TargetSets: map[string]TargetSetMeta{}}
	for _, side := range [][][]ttl.Tuple{labels.Out, labels.In} {
		for _, label := range side {
			for _, t := range label {
				vm.MinTime, vm.MaxTime = min(vm.MinTime, t.Dep), max(vm.MaxTime, t.Arr)
			}
		}
	}
	if vm.MinTime == timetable.Infinity {
		vm.MinTime, vm.MaxTime = 0, 0
	}
	return vm
}

// labelRunOrder is the run order every label table declares: hubs ascend; a
// hub's run is a Pareto antichain, ascending in departure and in arrival.
// Declared, it is validated by Load, the kernels search the runs instead
// of scanning them, and Open refuses a label table without it.
var labelRunOrder = []string{"hubs", "tds", "tas"}

// labelLoads are the loads of one version's lout and lin tables. Each row
// is a stop's label, in ascending stop id order, so a rejected row's index is
// its stop. The tables declare their run order and Load alone checks it: a
// label in any other order is its error, naming the position.
func labelLoads(suffix string, labels *ttl.Labels) []sqldb.TableLoad {
	load := func(name string, side [][]ttl.Tuple) sqldb.TableLoad {
		return sqldb.TableLoad{
			Def: sqldb.TableDef{
				Name: name,
				PK:   []string{"v"},
				Columns: []sqldb.ColumnDef{
					{Name: "v", Type: sqltypes.Int64},
					{Name: "hubs", Type: sqltypes.IntArray},
					{Name: "tds", Type: sqltypes.IntArray},
					{Name: "tas", Type: sqltypes.IntArray},
				},
				RunOrder: labelRunOrder,
			},
			Rows: func() ([]sqltypes.Row, error) { return labelRows(side), nil },
		}
	}
	return []sqldb.TableLoad{load("lout"+suffix, labels.Out), load("lin"+suffix, labels.In)}
}

// labelRows are the rows of one label side: (v, hubs, tds, tas) per stop.
func labelRows(side [][]ttl.Tuple) []sqltypes.Row {
	rows := make([]sqltypes.Row, len(side))
	for v, label := range side {
		hubs := make([]int32, len(label))
		tds := make([]int32, len(label))
		tas := make([]int32, len(label))
		for i, t := range label {
			hubs[i], tds[i], tas[i] = int32(t.Hub), int32(t.Dep), int32(t.Arr)
		}
		rows[v] = sqltypes.Row{
			sqltypes.NewInt(int64(v)),
			sqltypes.NewIntArray(hubs),
			sqltypes.NewIntArray(tds),
			sqltypes.NewIntArray(tas),
		}
	}
	return rows
}

// stopsLoad is the load of the stops metadata table, in ascending id order.
func stopsLoad(stops []timetable.Stop) sqldb.TableLoad {
	return sqldb.TableLoad{
		Def: sqldb.TableDef{
			Name: "stops",
			PK:   []string{"v"},
			Columns: []sqldb.ColumnDef{
				{Name: "v", Type: sqltypes.Int64},
				{Name: "name", Type: sqltypes.Text},
				{Name: "lat", Type: sqltypes.Float64},
				{Name: "lon", Type: sqltypes.Float64},
			},
		},
		Rows: func() ([]sqltypes.Row, error) {
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
			return rows, nil
		},
	}
}

// Open attaches to a previously built PTLDB database. It is the one
// constructor of a Store and the one place statements are prepared. hook,
// when non-nil, receives one obs.Trace per successful query of the store and
// of every Version view of it, synchronously on the querying goroutine, so
// it must be cheap and must not call back into the store; fan-out or
// buffering belongs in the hook itself (see obs.SlowQueryLogger).
func Open(db *sqldb.DB, hook func(obs.Trace)) (*Store, error) {
	meta, err := readMeta(db)
	if err != nil {
		return nil, err
	}
	// Every version enters the statement table with every set it has.
	// Preparing a statement binds it to its tables and checks they declare
	// what its kernel trusts, so a directory built before a declaration
	// existed is refused here, naming the table, like every other old image.
	stmts := make(map[string]*versionStmts, len(meta.Versions))
	for _, name := range meta.versionNames() {
		if stmts[name], err = prepareVersion(db, view{meta: meta, version: name}); err != nil {
			return nil, err
		}
	}
	return &Store{DB: db, view: view{meta: meta, version: BaseVersion}, stmts: stmts, ver: stmts[BaseVersion], hook: hook}, nil
}

// readMeta reads the meta row of db: what Open binds a Store to, and what
// every Writer call starts from.
func readMeta(db *sqldb.DB) (Meta, error) {
	tbl, ok := db.Table(metaTable)
	if !ok {
		return Meta{}, fmt.Errorf("core: not a PTLDB database: no %s table", metaTable)
	}
	row, found, err := tbl.LookupPK([]int64{0})
	if err != nil {
		return Meta{}, fmt.Errorf("core: not a PTLDB database: %w", err)
	}
	if !found {
		return Meta{}, fmt.Errorf("core: %s has no row 0", metaTable)
	}
	var meta Meta
	if err := json.Unmarshal([]byte(row[1].S), &meta); err != nil {
		return Meta{}, fmt.Errorf("core: corrupt meta: %w", err)
	}
	if meta.Versions[BaseVersion] == nil {
		return Meta{}, fmt.Errorf("core: corrupt meta: no %q version", BaseVersion)
	}
	return meta, nil
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

// load is the load of the meta table holding m: its one row, which a writer
// puts in the same Load as the tables m describes.
func (m Meta) load() sqldb.TableLoad {
	return sqldb.TableLoad{
		Def: sqldb.TableDef{
			Name: metaTable,
			PK:   []string{"id"},
			Columns: []sqldb.ColumnDef{
				{Name: "id", Type: sqltypes.Int64},
				{Name: "payload", Type: sqltypes.Text},
			},
		},
		Rows: func() ([]sqltypes.Row, error) {
			blob, err := json.Marshal(m)
			if err != nil {
				return nil, err
			}
			return []sqltypes.Row{{sqltypes.NewInt(0), sqltypes.NewText(string(blob))}}, nil
		},
	}
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
func (v view) hour(t timetable.Time) int64 {
	return timetable.FloorDiv(int64(t), int64(v.meta.BucketSeconds))
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
