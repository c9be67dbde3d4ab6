// Package sqldb is the embedded relational database used by PTLDB: a
// directory holding one image file with every table's immutable segment back
// to back, each segment's header carrying its table's definition, a shared
// buffer pool with a simulated storage device, and a SQL query interface
// (parser + executor) supporting the SELECT dialect of the paper's Codes 1–4.
//
// It plays the role PostgreSQL plays in the paper. The engine is read-only
// storage under a bulk loader: a table is written once, whole, by DB.Load,
// and never changes after — there is no row-at-a-time insert, no WAL and no
// MVCC, matching the paper's workload in which all tables are created during
// preprocessing — and read queries may run concurrently.
package sqldb

import (
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"

	"ptldb/internal/obs"
	"ptldb/internal/sqldb/exec"
	"ptldb/internal/sqldb/sql"
	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/sqldb/storage"
)

// ColumnDef declares one column.
type ColumnDef struct {
	Name string        `json:"name"`
	Type sqltypes.Type `json:"type"`
}

// TableDef declares a table: columns plus a primary key of one or two
// integer columns. RunOrder, when set, names three INT[] columns (g, a, b)
// and declares that in every row the three arrays have equal length, g is
// non-decreasing, and within a run of equal g both a and b are non-decreasing.
// TargetIDs, when set, names INT[] columns and declares that every element
// of them in every row is an id in [0, Bound) and, when Count is positive, that
// the rows hold at most Count distinct ids. Floor, when set, declares that
// every element of its columns in every row is at least the row's Key value
// times Width. Load rejects a load that breaks any of them, so readers trust
// all three unchecked.
type TableDef struct {
	Name      string      `json:"name"`
	Columns   []ColumnDef `json:"columns"`
	PK        []string    `json:"pk"`
	RunOrder  []string    `json:"run_order,omitempty"`
	TargetIDs *TargetIDs  `json:"target_ids,omitempty"`
	Floor     *Floor      `json:"floor,omitempty"`
}

// TargetIDs is TableDef's declaration of dense ids: the columns that hold
// them and their exclusive bound, at most math.MaxInt32 (a reader may index
// an array by them), and optionally Count: the most distinct ids all rows hold
// together, in [1, Bound], or 0 for no count. A one-to-many table declares the
// size of its target set, so a reader knows when it has seen every id.
type TargetIDs struct {
	Columns []string `json:"columns"`
	Bound   int64    `json:"bound"`
	Count   int64    `json:"count,omitempty"`
}

// Floor is TableDef's declaration of a lower bound that moves with a key: Key
// is a BIGINT column, Width is at least 1, and every element of the INT[]
// Columns is >= Key × Width in its row (a condensed EA table: no arrival of a
// row's arms is earlier than the start of its departure bucket).
type Floor struct {
	Key     string   `json:"key"`
	Width   int64    `json:"width"`
	Columns []string `json:"columns"`
}

// DefaultPoolPages is the buffer-pool capacity when Options leaves PoolPages
// zero: 131072 pages = 1 GiB, a laptop-scale stand-in for the paper's 8 GiB
// shared_buffers. The tenant router divides the same total among its
// tenants.
const DefaultPoolPages = 131072

// Options configures Open.
type Options struct {
	// Device is the simulated storage device (default storage.SSD).
	Device storage.DeviceModel
	// PoolPages is the buffer-pool capacity in pages (default
	// DefaultPoolPages).
	PoolPages int
	// ReferenceExec is the tests' reference switch: Prepare never fuses, so
	// every statement runs on the general executor the differential batteries
	// compare the fused one against. No public type, flag or environment
	// variable reaches it; production handles leave it false.
	ReferenceExec bool
	// VectorCacheBytes is the resident vector cache's byte budget, which
	// Open spends on the tables of the image in image order (vectors.go).
	// Zero or negative means no cache (the default at this layer; the ptldb
	// facade supplies its own default budget).
	VectorCacheBytes int64
}

// ImageName is the one file of a database directory: every table's segment,
// back to back in the order of the tables' names, each segment's header page
// holding its table's definition (DESIGN.md §10.1). A flushed directory holds
// it and nothing else; one without it is an empty database.
const ImageName = "image.seg"

// afterStep, nil outside tests, is called after each file-system step of a
// writer, named, so that a test can copy the directory a crash there leaves.
var afterStep func(step string)

func step(what string) {
	if afterStep != nil {
		afterStep(what)
	}
}

// DB is one open database directory.
type DB struct {
	dir   string
	dev   storage.DeviceModel
	clock storage.Clock
	pool  *storage.Pool

	referenceExec bool // Options.ReferenceExec

	// tables is the catalog. Only Open, Load and Close write it, and none of
	// them runs concurrently with another call on the handle (DESIGN.md §6).
	tables map[string]*Table
	// files is every file the handle opened — the image, then each loose
	// segment — which stay open, and readable, until Close closes them all.
	files []*storage.PagedFile
	// loaded is set by Load and cleared by the Flush that packs its tables.
	loaded bool

	// prepares counts Prepare calls, i.e. statement parses (StmtCacheStats).
	prepares atomic.Uint64

	// reg is the handle's observability registry: executor dispatch counters
	// (fused runs vs. general runs, rows scanned, tuples merged), per-Code
	// query latencies, and — grafted in at Open — the buffer pool's counters.
	reg obs.Registry
}

// Open opens the database in dir and returns once every table it admits to
// the vector cache is decoded and resident. It walks the image front to back
// in one pass, each segment's header giving its table's definition and its
// page count, hence the next segment's start. Without the image, dir is an
// empty database if it is missing or holds nothing but loose and temporary
// files — Open creates nothing; the first Load makes the directory — and
// any other file, the older layouts' catalog among them, fails the open. So
// do a segment that fails validation (wrapping storage.ErrCorruptSegment), a
// definition that is not valid or not its segment's columns, and a row an
// admitted table's decode rejects: the error names the table, or the file
// and the page, and nothing stays open behind it. The recovery is a rebuild.
func Open(dir string, opts Options) (*DB, error) {
	if opts.Device.Name == "" {
		opts.Device = storage.SSD
	}
	if opts.PoolPages == 0 {
		opts.PoolPages = DefaultPoolPages
	}
	db := &DB{
		dir:           dir,
		dev:           opts.Device,
		pool:          storage.NewPool(opts.PoolPages),
		referenceExec: opts.ReferenceExec,
		tables:        map[string]*Table{},
	}
	db.reg.Pool = db.pool.Metrics()
	// left is what the vector budget has left after the tables admitted so
	// far; nil when the handle has none.
	var left *int64
	if opts.VectorCacheBytes > 0 {
		db.reg.VCache = &obs.VCacheMetrics{}
		left = &opts.VectorCacheBytes
	}
	f, err := storage.OpenPagedFile(db.imagePath(), db.dev, &db.clock)
	if errors.Is(err, fs.ErrNotExist) {
		entries, rerr := os.ReadDir(dir)
		if errors.Is(rerr, fs.ErrNotExist) {
			return db, nil
		}
		if rerr != nil {
			return nil, fmt.Errorf("sqldb: %w", rerr)
		}
		for _, e := range entries {
			if !scratchFile(e.Name()) {
				return nil, fmt.Errorf("sqldb: %s holds %s but no %s — it is damaged or was built by an older version; rebuild it: %w",
					dir, e.Name(), ImageName, err)
			}
		}
		return db, nil
	}
	if err != nil {
		return nil, fmt.Errorf("sqldb: %w", err)
	}
	db.files = append(db.files, f)
	db.pool.Register(f)
	f.CountReads(&db.reg.Pool.RandReads, &db.reg.Pool.SeqReads)
	// Tables open one after another, in image order, so admission is a
	// running sum in that order; the admitted ones then decode on every core.
	// An image holds at least one segment.
	var tables []*Table
	var jobs []func() error
	for base := storage.PageID(0); err == nil && (base == 0 || base < f.NumPages()); {
		pages, finish, nerr := db.newTable(f, ImageName, base, left)
		base, err = base+pages, nerr
		i := len(tables)
		tables = append(tables, nil)
		jobs = append(jobs, func() (err error) {
			tables[i], err = finish()
			return err
		})
	}
	if err == nil {
		err = RunJobs(0, jobs)
	}
	if err != nil {
		_ = f.Close() // best-effort cleanup; the open failure wins
		return nil, err
	}
	for _, t := range tables {
		db.tables[t.def.Name] = t
	}
	return db, nil
}

// scratchFile reports whether name is a loose segment or a temporary file.
func scratchFile(name string) bool {
	return strings.HasSuffix(name, ".loose") || strings.HasSuffix(name, ".tmp")
}

func (db *DB) imagePath() string { return filepath.Join(db.dir, ImageName) }

// Clock exposes the simulated-device clock: the total device time charged by
// all I/O since open (or the last Reset).
func (db *DB) Clock() *storage.Clock { return &db.clock }

// Pool exposes the buffer pool for cache statistics and DropCaches.
func (db *DB) Pool() *storage.Pool { return db.pool }

// Device returns the device model the database was opened with.
func (db *DB) Device() storage.DeviceModel { return db.dev }

// DropCaches empties the buffer pool, then forgets where every file the
// handle opened was last read, emulating the paper's OS cache drop (the first
// read of any file is a seek). The resident vectors stay, as the key
// directories do: both are what Open decoded, and a server restart is Close
// and Open again.
func (db *DB) DropCaches() {
	db.pool.DropCaches()
	for _, f := range db.files {
		f.ForgetLastRead()
	}
}

// TableLoad is one table of a Load: its definition and the function that
// computes its rows, sorted by strictly ascending primary key and free of
// NULL. Load calls Rows on its worker pool, once.
type TableLoad struct {
	Def  TableDef
	Rows func() ([]sqltypes.Row, error)
}

// Load writes a batch of new tables, the one write there is. It validates
// every definition and makes the directory if it is missing, then on up to
// workers goroutines (RunJobs) computes each table's rows, checks them
// against the definition and writes them as a loose segment, the definition
// in its header page (one that does not fit fails before the file is
// created) — not synced; the next Flush packs it — that a new Table reads.
// Only once every load has succeeded are the tables entered in the catalog,
// each replacing any table of its name; a failed batch removes the segments
// it wrote and leaves the catalog as it was. A replaced table does not change
// (a statement prepared on it keeps reading it, and its file stays open
// until Close), but its vectors leave the count of resident bytes. A loaded
// table reads its segment until the directory is opened again: only Open
// admits a table to the vector cache. Load must not run concurrently with
// any other call on the handle.
func (db *DB) Load(workers int, loads ...TableLoad) error {
	schemas := make([]*schema, len(loads))
	for i, l := range loads {
		sc, err := newSchema(l.Def)
		if err != nil {
			return err
		}
		for _, prev := range schemas[:i] {
			if prev.def.Name == sc.def.Name {
				return fmt.Errorf("sqldb: table %q is loaded twice in one batch", l.Def.Name)
			}
		}
		schemas[i] = sc
	}
	if err := db.makeDir(); err != nil {
		return err
	}
	tables := make([]*Table, len(loads))
	jobs := make([]func() error, len(loads))
	for i, l := range loads {
		jobs[i] = func() error {
			sc := schemas[i]
			sd, err := sc.encode(l.Rows)
			if err != nil {
				return err
			}
			path := db.loosePath(sc.def.Name)
			if err := storage.WriteSegmentFile(path, db.dev, &db.clock, sd); err != nil {
				return err
			}
			step("write " + filepath.Base(path))
			if tables[i], err = db.openLoose(path); err != nil {
				_ = os.Remove(path) // best-effort cleanup; the load failure wins
			}
			return err
		}
	}
	if err := RunJobs(workers, jobs); err != nil {
		for i, sc := range schemas {
			if t := tables[i]; t != nil {
				db.pool.Forget(t.file)
				_ = firstError(t.file.Close(), os.Remove(db.loosePath(sc.def.Name))) // best-effort cleanup; the load failure wins
			}
		}
		return err
	}
	for _, t := range tables {
		if old := db.tables[t.def.Name]; old != nil && old.vc != nil {
			db.reg.VCache.ResidentBytes.Add(-old.vc.Bytes)
		}
		db.tables[t.def.Name] = t
		db.files = append(db.files, t.file)
	}
	db.loaded = true
	return nil
}

// makeDir makes the handle's directory, and its parents, if it is missing.
func (db *DB) makeDir() error {
	if _, err := os.Stat(db.dir); !errors.Is(err, fs.ErrNotExist) {
		return nil // a directory that is there, or one a write will fail on, naming it
	}
	if err := os.MkdirAll(db.dir, 0o755); err != nil {
		return fmt.Errorf("sqldb: %w", err)
	}
	step("make " + filepath.Base(db.dir))
	return nil
}

// loosePath is where Load writes the named table's segment; Flush copies it
// into the image and deletes it.
func (db *DB) loosePath(name string) string { return filepath.Join(db.dir, name+".loose") }

// openLoose opens the loose segment at path as a new table.
func (db *DB) openLoose(path string) (*Table, error) {
	f, err := storage.OpenPagedFile(path, db.dev, &db.clock)
	if err != nil {
		return nil, fmt.Errorf("sqldb: %w", err)
	}
	db.pool.Register(f)
	f.CountReads(&db.reg.Pool.RandReads, &db.reg.Pool.SeqReads)
	_, finish, err := db.newTable(f, filepath.Base(path), 0, nil)
	var t *Table
	if err == nil {
		t, err = finish()
	}
	if err != nil {
		_ = f.Close() // best-effort cleanup; the open failure wins
		return nil, err
	}
	return t, nil
}

// Table returns the named table.
func (db *DB) Table(name string) (*Table, bool) {
	t, ok := db.tables[strings.ToLower(name)]
	return t, ok
}

// Tables returns the names of all tables.
func (db *DB) Tables() []string {
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	return out
}

// Flush makes every completed write durable; with no Load since the last
// Flush it does nothing, the directory not even opened. After a Load it packs
// a new image: the segment of every table, in the order of their names,
// copied by page range from the file the table reads — the image this handle
// opened or a loose segment — is written and synced beside the image and
// renamed over it, the one rename that commits. The directory is synced and
// every loose and temporary file in it deleted, a crashed writer's too. The
// tables keep reading the files they read before, which stay open once
// replaced or deleted, so a pack changes nothing a reader sees. Flush must
// not run concurrently with a Load on any handle of the directory.
func (db *DB) Flush() error {
	if !db.loaded {
		return nil
	}
	if err := db.pack(); err != nil {
		return err
	}
	d, err := os.Open(db.dir)
	if err != nil {
		return fmt.Errorf("sqldb: %w", err)
	}
	if err := firstError(d.Sync(), d.Close()); err != nil {
		return err
	}
	step("sync the directory")
	// loaded stays set until every removal succeeded, so a Flush after a
	// failed one packs again and removes the rest.
	entries, err := os.ReadDir(db.dir)
	if err != nil {
		return fmt.Errorf("sqldb: %w", err)
	}
	for _, e := range entries {
		if scratchFile(e.Name()) {
			if err := os.Remove(filepath.Join(db.dir, e.Name())); err != nil {
				return fmt.Errorf("sqldb: %w", err)
			}
			step("remove " + e.Name())
		}
	}
	db.loaded = false
	return nil
}

// pack writes the image beside the live one and renames it into place.
func (db *DB) pack() error {
	names := db.Tables()
	slices.Sort(names)
	segs := make([]*storage.Segment, len(names))
	for i, name := range names {
		segs[i] = db.tables[name].seg
	}
	tmp := db.imagePath() + ".tmp"
	err := storage.WriteImage(tmp, db.dev, &db.clock, segs)
	if err == nil {
		step("write and sync " + ImageName + ".tmp")
		err = os.Rename(tmp, db.imagePath()) // on failure, the next pack removes tmp
	}
	if err != nil {
		return fmt.Errorf("sqldb: flush: %w", err)
	}
	step("rename " + ImageName + ".tmp")
	return nil
}

// Close flushes and closes every file the handle opened, those of replaced
// tables included. Every file is closed even when the flush fails (the
// directory may be gone); the first error is returned.
func (db *DB) Close() error {
	err := db.Flush()
	for _, f := range db.files {
		err = firstError(err, f.Close())
	}
	db.tables, db.files = map[string]*Table{}, nil
	return err
}

// firstError returns the first non-nil error of errs.
func firstError(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SizeOnDisk returns the total bytes of the directory's files — after a
// Flush, the image alone (the paper's Section 4.3 storage report).
func (db *DB) SizeOnDisk() (int64, error) {
	var total int64
	entries, err := os.ReadDir(db.dir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// Query parses and executes a SELECT with positional parameters ($1 …).
func (db *DB) Query(query string, params ...sqltypes.Value) (*exec.Relation, error) {
	sel, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	db.reg.Exec.GeneralRuns.Add(1)
	return exec.Run(sel, &catalog{db, db.tables}, params)
}

// QueryTraced executes a SELECT and also returns the access-path trace (one
// line per planner decision) — the engine's EXPLAIN ANALYZE.
func (db *DB) QueryTraced(query string, params ...sqltypes.Value) (*exec.Relation, []string, error) {
	sel, err := sql.Parse(query)
	if err != nil {
		return nil, nil, err
	}
	db.reg.Exec.GeneralRuns.Add(1)
	return exec.RunTraced(sel, &catalog{db, db.tables}, params)
}

// Stmt is a prepared statement: parsed once, executable many times.
type Stmt struct {
	db    *DB
	sel   *sql.Select
	cat   *catalog        // the tables the handle had at Prepare
	fused *exec.FusedPlan // non-nil when the statement matched a fused shape
}

// Prepare parses a SELECT for repeated execution on the tables the handle
// has now. A statement of the workload (exec.Fuse: the ten texts of
// exec/codes.go) compiles to its fused plan, bound to its tables — one that
// lacks a table, a column or a declaration its kernel trusts fails here,
// naming the table; any other statement runs on the general executor, over
// the same tables. Tables never change, so a statement answers from what it
// was prepared on: a Load that replaces a table by name leaves it reading the
// table it had.
func (db *DB) Prepare(query string) (*Stmt, error) {
	db.prepares.Add(1)
	sel, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	st := &Stmt{db: db, sel: sel, cat: &catalog{db, maps.Clone(db.tables)}}
	if !db.referenceExec {
		if st.fused, err = exec.Fuse(sel, st.cat); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// Fused reports whether the statement compiled to a fused plan.
func (s *Stmt) Fused() bool { return s.fused != nil }

// Kind names the statement of exec/codes.go the statement compiled to
// (exec.FusedPlan.Kind), "" when it did not fuse.
func (s *Stmt) Kind() string {
	if s.fused == nil {
		return ""
	}
	return s.fused.Kind()
}

// ExecInfo reports which execution path answered one Stmt.Query: Fused is
// set when the fused plan produced the result. Returned by value so the hot
// path never allocates for it.
type ExecInfo struct {
	Fused bool
}

// Query executes the prepared statement. The statement is immutable after
// Prepare (execution never mutates the AST or the fused plan), so one Stmt
// may be executed from many goroutines concurrently.
func (s *Stmt) Query(params ...sqltypes.Value) (*exec.Relation, error) {
	rel, _, err := s.QueryInfo(params...)
	return rel, err
}

// QueryInfo is Query, additionally reporting which execution path produced
// the result — the per-query counterpart of FusedStats, used by trace hooks.
// A fused plan answers or fails; the general executor runs only a statement
// that did not fuse at Prepare.
func (s *Stmt) QueryInfo(params ...sqltypes.Value) (*exec.Relation, ExecInfo, error) {
	if s.fused != nil {
		s.db.reg.Exec.FusedRuns.Add(1)
		rel, err := s.fused.Run(params)
		return rel, ExecInfo{Fused: true}, err
	}
	s.db.reg.Exec.GeneralRuns.Add(1)
	rel, err := exec.Run(s.sel, s.cat, params)
	return rel, ExecInfo{}, err
}

// Explain renders the fused operator tree of a statement that compiled to
// one.
func (s *Stmt) Explain() (string, error) {
	if s.fused == nil {
		return "", errors.New("sqldb: statement has no fused plan to explain")
	}
	return s.fused.Explain(), nil
}

// FusedStats reports how many prepared-statement executions ran on the fused
// plans and how many on the general executor (which also counts every
// DB.Query).
func (db *DB) FusedStats() (fused, general uint64) {
	return db.reg.Exec.FusedRuns.Load(), db.reg.Exec.GeneralRuns.Load()
}

// Registry exposes the handle's observability registry. The pointer is
// live — counters advance as queries run — and valid for the DB's lifetime.
func (db *DB) Registry() *obs.Registry { return &db.reg }

// StmtCacheStats reports (0, n), where n counts Prepare calls, i.e.
// statement parses. There is no statement cache: each caller prepares a
// statement once and keeps it. StmtCacheStats stays only because the
// benchmark's stmt.hits / stmt.misses counters read it; the [benchmark] queue
// in ROADMAP.md deletes them, then it.
func (db *DB) StmtCacheStats() (hits, misses uint64) {
	return 0, db.prepares.Load()
}

// catalog exposes tables of db to the executor: the live catalog to
// DB.Query, and to a Stmt the tables the handle had at Prepare.
type catalog struct {
	db     *DB
	tables map[string]*Table
}

func (c *catalog) Table(name string) (exec.Table, bool) {
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, false
	}
	return t, true
}

// ExecMetrics returns the handle's executor counters, which both executors
// feed.
func (c *catalog) ExecMetrics() *obs.ExecMetrics { return &c.db.reg.Exec }

func colIndex(cols []ColumnDef, name string) int {
	for i, c := range cols {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}
