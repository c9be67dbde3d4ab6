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
// holding its table's definition (DESIGN.md §10.1). A directory holds it and
// nothing else, but for the image.seg.tmp a writer's crash may leave; one
// without it is an empty database.
const ImageName = "image.seg"

// tmpName is the one temporary file of a directory: the image a Load writes,
// before it is renamed over the image.
const tmpName = ImageName + ".tmp"

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
	// files is every image the handle opened — the one Open read, then the
	// one each Load wrote — which stay open, and readable, until Close closes
	// them all.
	files []*storage.PagedFile

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
// empty database if it is missing or holds nothing but the temporary image
// a crashed writer left — Open creates nothing; the first Load makes the
// directory — and any other file, the older layouts' catalog among them,
// fails the open. So
// do a segment that fails validation (wrapping storage.ErrCorruptSegment), a
// definition that is not valid or not its segment's columns, a table name not
// above the one before it (Load writes them in name order; the same sentinel)
// and a row an admitted table's decode rejects: the error names the table, or
// the file and the page, and nothing stays open behind it. Rebuild it.
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
			if e.Name() != tmpName {
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
	// An image holds at least one segment, and its tables ascend by name.
	var tables []*Table
	var jobs []func() error
	for base := storage.PageID(0); err == nil && (base == 0 || base < f.NumPages()); {
		t, decode, nerr := db.newTable(f, ImageName, base, left)
		if n := len(tables); nerr == nil && n > 0 && t.def.Name <= tables[n-1].def.Name {
			nerr = fmt.Errorf("sqldb: %s: the segment at page %d: %w: table %q follows table %q, out of name order; rebuild the database",
				ImageName, base, storage.ErrCorruptSegment, t.def.Name, tables[n-1].def.Name)
		}
		if err = nerr; err == nil {
			base += t.seg.Pages()
			tables = append(tables, t)
			if decode != nil {
				jobs = append(jobs, decode)
			}
		}
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

func (db *DB) imagePath() string { return filepath.Join(db.dir, ImageName) }

// Clock exposes the simulated-device clock: the total device time charged by
// all I/O since open (or the last Reset).
func (db *DB) Clock() *storage.Clock { return &db.clock }

// Pool exposes the buffer pool for cache statistics and DropCaches.
func (db *DB) Pool() *storage.Pool { return db.pool }

// Device returns the device model the database was opened with.
func (db *DB) Device() storage.DeviceModel { return db.dev }

// DropCaches empties the buffer pool, then forgets where every image the
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

// Load writes a batch of new tables and commits it: the one write there is.
// It validates every definition, then on up to workers goroutines (RunJobs)
// computes each table's rows, checks them against the definition and encodes
// them as its segment in memory, the definition in its header page (one that
// does not fit fails here), so that a batch that fails there writes nothing.
// Then it writes the directory's next image, making the directory if it is
// missing: the segments of the handle's tables and of the batch's, in the
// order of their names — a table the batch does not replace copied by page
// range from the file it reads — go to image.seg.tmp, truncated first (a
// crashed writer may have left one), which is synced, read back into the
// batch's new Tables, renamed over the image — the one rename, which commits
// the batch — and the directory synced. A failure before the rename leaves
// the directory and the catalog as they were; after it the catalog enters the
// batch, each table replacing any of its name, and a failed sync of the
// directory is returned with the batch committed. A replaced table does not
// change (a statement prepared on it keeps reading it, and its file stays
// open until Close), but its vectors leave the count of resident bytes. A
// loaded table reads its segment until the directory is opened again: only
// Open admits a table to the vector cache. Load must not run concurrently
// with any other call on the handle, nor with a Load on another handle of the
// directory.
func (db *DB) Load(workers int, loads ...TableLoad) error {
	if len(loads) == 0 {
		return nil
	}
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
	segs := make([]storage.SegmentData, len(loads))
	jobs := make([]func() error, len(loads))
	for i, l := range loads {
		jobs[i] = func() (err error) {
			segs[i], err = schemas[i].encode(l.Rows)
			return err
		}
	}
	if err := RunJobs(workers, jobs); err != nil {
		return err
	}
	f, tables, err := db.commit(workers, schemas, segs)
	if err != nil {
		return err
	}
	db.files = append(db.files, f)
	for _, t := range tables {
		if old := db.tables[t.def.Name]; old != nil && old.vc != nil {
			db.reg.VCache.ResidentBytes.Add(-old.vc.Bytes)
		}
		db.tables[t.def.Name] = t
	}
	d, err := os.Open(db.dir)
	if err == nil {
		err = firstError(d.Sync(), d.Close())
	}
	if err != nil {
		return fmt.Errorf("sqldb: %w", err)
	}
	step("sync the directory")
	return nil
}

// commit writes the handle's tables and the loads' segments, in the order of
// their names, to image.seg.tmp, syncs it, reads the loads' new tables back
// from it and renames it over the image. It returns the new image, open for
// reading, and the loads' tables; a failure removes the file.
func (db *DB) commit(workers int, loads []*schema, segs []storage.SegmentData) (*storage.PagedFile, []*Table, error) {
	if err := db.makeDir(); err != nil {
		return nil, nil, err
	}
	load := map[string]int{}
	names := db.Tables()
	for i, sc := range loads {
		load[sc.def.Name] = i
		if _, ok := db.tables[sc.def.Name]; !ok {
			names = append(names, sc.def.Name)
		}
	}
	slices.Sort(names)
	tmp := filepath.Join(db.dir, tmpName)
	w, err := storage.CreatePagedFile(tmp, db.dev, &db.clock)
	if err != nil {
		return nil, nil, fmt.Errorf("sqldb: %w", err)
	}
	var f *storage.PagedFile // the image written, open for reading
	fail := func(err error) (*storage.PagedFile, []*Table, error) {
		if f != nil {
			db.pool.Forget(f)
			_ = f.Close() // best-effort cleanup; the load failure wins
		}
		_ = os.Remove(tmp) // best-effort cleanup; the load failure wins
		return nil, nil, err
	}
	bases := make([]storage.PageID, len(loads))
	for _, name := range names {
		if i, ok := load[name]; ok {
			bases[i] = w.NumPages()
			err = storage.AppendSegment(w, segs[i])
		} else {
			err = db.tables[name].seg.AppendTo(w)
		}
		if err != nil {
			_ = w.Close() // best-effort cleanup; the write failure wins
			return fail(fmt.Errorf("sqldb: table %q: %w", name, err))
		}
		step("append " + name + " to " + tmpName)
	}
	if err := firstError(w.Sync(), w.Close()); err != nil {
		return fail(fmt.Errorf("sqldb: %w", err))
	}
	step("sync " + tmpName)
	if f, err = storage.OpenPagedFile(tmp, db.dev, &db.clock); err != nil {
		return fail(fmt.Errorf("sqldb: %w", err))
	}
	db.pool.Register(f)
	f.CountReads(&db.reg.Pool.RandReads, &db.reg.Pool.SeqReads)
	tables := make([]*Table, len(loads))
	jobs := make([]func() error, len(loads))
	for i := range loads {
		jobs[i] = func() (err error) {
			tables[i], _, err = db.newTable(f, ImageName, bases[i], nil)
			return err
		}
	}
	if err := RunJobs(workers, jobs); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp, db.imagePath()); err != nil {
		return fail(fmt.Errorf("sqldb: %w", err))
	}
	step("rename " + tmpName)
	return f, tables, nil
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

// Flush does nothing and returns nil: each Load commits its own batch.
//
// Deprecated: Load writes, syncs and renames the image itself. Flush goes
// when benchmark/dataset.go stops calling it (ROADMAP item 1).
func (db *DB) Flush() error { return nil }

// Close closes every image the handle opened, those only replaced tables
// read included, and writes nothing; the first error is returned. It also
// lets go of what the handle holds in memory — each table's resident vectors
// and every frame of the pool — because a prepared statement binds its tables
// and may outlive the handle: a query through one after Close reads a closed
// image and fails.
func (db *DB) Close() error {
	var err error
	for _, f := range db.files {
		err = firstError(err, f.Close())
	}
	for _, t := range db.tables {
		t.vc = nil
	}
	db.pool.DropCaches()
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

// SizeOnDisk returns the total bytes of the directory's files — outside a
// Load, the image alone, but for a crashed writer's image.seg.tmp (the
// paper's Section 4.3 storage report).
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
