// Package sqldb is the embedded relational database used by PTLDB: a
// directory holding a persisted catalog and one image file with every
// table's immutable segment back to back, a shared buffer pool with a
// simulated storage device, and a SQL query interface (parser + executor)
// supporting the SELECT dialect of the paper's Codes 1–4.
//
// It plays the role PostgreSQL plays in the paper. The engine is read-only
// storage under a bulk loader: a table is written once, whole, by
// Table.BulkLoad, and nothing else writes — there is no row-at-a-time insert,
// no WAL and no MVCC, matching the paper's workload in which all tables are
// created during preprocessing — and read queries may run concurrently.
package sqldb

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
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
// integer columns. RunOrder, when set, names three BIGINT[] columns (g, a, b)
// and declares that in every row the three arrays have equal length, g is
// non-decreasing, and within a run of equal g both a and b are non-decreasing.
// TargetIDs, when set, names BIGINT[] columns and declares that every element
// of them in every row is an id in [0, Bound) and, when Count is positive, that
// the rows hold at most Count distinct ids. Floor, when set, declares that
// every element of its columns in every row is at least the row's Key value
// times Width. BulkLoad rejects a load that breaks any of them, so readers
// trust all three unchecked.
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
// is a BIGINT column, Width is at least 1, and every element of the BIGINT[]
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
	// Open spends on the tables of the catalog in catalog order (vectors.go).
	// Zero or negative means no cache (the default at this layer; the ptldb
	// facade supplies its own default budget).
	VectorCacheBytes int64
}

// ImageName is the file of a database directory that holds every catalogued
// table's segment, back to back in catalog order (DESIGN.md §10.1). A
// flushed directory holds it and catalog.json, nothing else.
const ImageName = "image.seg"

// DB is one open database directory.
type DB struct {
	dir   string
	dev   storage.DeviceModel
	clock storage.Clock
	pool  *storage.Pool

	referenceExec bool // Options.ReferenceExec

	// image is the image file Open read the tables from, nil when the
	// directory had none. It stays open, and the tables Open placed on it
	// keep reading it, after a Flush replaced it on disk.
	image *storage.PagedFile

	mu     sync.RWMutex
	tables map[string]*Table
	// declared is set by CreateTable and cleared by the Flush that writes the
	// catalog declaring the table.
	declared bool

	// prepares counts Prepare calls, i.e. statement parses (StmtCacheStats).
	prepares atomic.Uint64

	// reg is the handle's observability registry: executor dispatch counters
	// (fused runs vs. general runs, rows scanned, tuples merged), per-Code
	// query latencies, and — grafted in at Open — the buffer pool's counters.
	reg obs.Registry
}

// Open opens the database in dir, an empty one when dir has no catalog yet
// (the directory is created if needed; no other file ever is), and returns
// once every table it admits to the vector cache is decoded and resident.
// The image holds every catalogued table's segment, back to back in catalog
// order, and Open walks it front to back in one pass: each segment's header
// gives its page count, hence the next segment's start. A directory without
// the image (one in an older, file-per-table layout included), an image that
// ends before the catalog does or holds pages after its last table, and a
// segment that fails validation (wrapping storage.ErrCorruptSegment), does
// not match its table's schema or holds a row an admitted table's decode
// rejects fail the whole open with an error naming the table or the image,
// and nothing stays open behind the error. The recovery is a rebuild.
func Open(dir string, opts Options) (*DB, error) {
	if opts.Device.Name == "" {
		opts.Device = storage.SSD
	}
	if opts.PoolPages == 0 {
		opts.PoolPages = DefaultPoolPages
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sqldb: %w", err)
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
	cat, err := os.ReadFile(db.catalogPath())
	if err != nil {
		if os.IsNotExist(err) {
			return db, nil
		}
		return nil, fmt.Errorf("sqldb: read catalog: %w", err)
	}
	var defs []TableDef
	if err := json.Unmarshal(cat, &defs); err != nil {
		return nil, fmt.Errorf("sqldb: parse catalog: %w", err)
	}
	f, err := storage.OpenPagedFile(db.imagePath(), db.dev, &db.clock)
	if errors.Is(err, fs.ErrNotExist) && len(defs) == 0 {
		return db, nil
	}
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("sqldb: table %q: the directory holds no %s — it is damaged or was built by an older version, with a file per table; rebuild it: %w",
			defs[0].Name, ImageName, err)
	}
	if err != nil {
		return nil, fmt.Errorf("sqldb: %w", err)
	}
	db.image = f
	db.pool.Register(f)
	f.CountReads(&db.reg.Pool.RandReads, &db.reg.Pool.SeqReads)
	// Tables open one after another, in catalog order, so admission is a
	// running sum in that order; the admitted ones then decode on every core.
	var jobs []func() error
	base := storage.PageID(0)
	for _, def := range defs {
		def.Name = strings.ToLower(def.Name)
		if base == f.NumPages() {
			err = fmt.Errorf("sqldb: table %q: %w: header: the image ends at page %d, before the table's segment; rebuild the database",
				def.Name, storage.ErrCorruptSegment, base)
			break
		}
		var t *Table
		var decode func() error
		if t, err = db.newTable(def); err == nil {
			decode, err = t.open(f, base, left)
		}
		if err != nil {
			break
		}
		db.tables[def.Name] = t
		base += t.seg.Pages()
		if decode != nil {
			jobs = append(jobs, decode)
		}
	}
	if err == nil && base != f.NumPages() {
		err = fmt.Errorf("sqldb: %s: %w: %d pages after the segments of the catalog's %d tables; rebuild the database",
			ImageName, storage.ErrCorruptSegment, f.NumPages()-base, len(defs))
	}
	if err == nil {
		err = RunJobs(0, jobs)
	}
	if err != nil {
		_ = f.Close() // best-effort cleanup; the open failure wins
		return nil, err
	}
	return db, nil
}

func (db *DB) catalogPath() string { return filepath.Join(db.dir, "catalog.json") }

func (db *DB) imagePath() string { return filepath.Join(db.dir, ImageName) }

// Clock exposes the simulated-device clock: the total device time charged by
// all I/O since open (or the last Reset).
func (db *DB) Clock() *storage.Clock { return &db.clock }

// Pool exposes the buffer pool for cache statistics and DropCaches.
func (db *DB) Pool() *storage.Pool { return db.pool }

// Device returns the device model the database was opened with.
func (db *DB) Device() storage.DeviceModel { return db.dev }

// DropCaches empties the buffer pool, then forgets where the image and every
// loose segment were last read, emulating the paper's OS cache drop (the
// first read of any file is a seek). The resident vectors stay, as the key
// directories do: both are what Open decoded, and a server restart is Close
// and Open again.
func (db *DB) DropCaches() {
	db.pool.DropCaches()
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, f := range db.filesLocked() {
		f.ForgetLastRead()
	}
}

// filesLocked returns every file the handle's tables read: the image and each
// loose segment, once each. Caller holds db.mu.
func (db *DB) filesLocked() []*storage.PagedFile {
	var files []*storage.PagedFile
	if db.image != nil {
		files = append(files, db.image)
	}
	for _, t := range db.tables {
		if t.file != nil && t.file != db.image {
			files = append(files, t.file)
		}
	}
	return files
}

// CreateTable declares a new table: its catalog entry, which the next Flush
// writes. The table reads as empty until Table.BulkLoad writes its segment,
// which every catalogued table must have by that Flush: the image leaves out
// a table without one, and the directory then fails to open.
func (db *DB) CreateTable(def TableDef) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	name := strings.ToLower(def.Name)
	if name == "" {
		return nil, fmt.Errorf("sqldb: empty table name")
	}
	if _, exists := db.tables[name]; exists {
		return nil, fmt.Errorf("sqldb: table %q already exists", def.Name)
	}
	if len(def.Columns) == 0 {
		return nil, fmt.Errorf("sqldb: table %q has no columns", def.Name)
	}
	if len(def.PK) < 1 || len(def.PK) > 2 {
		return nil, fmt.Errorf("sqldb: table %q: a table needs a primary key of one or two columns, got %d", def.Name, len(def.PK))
	}
	for _, pk := range def.PK {
		ci := colIndex(def.Columns, pk)
		if ci < 0 {
			return nil, fmt.Errorf("sqldb: table %q: unknown PK column %q", def.Name, pk)
		}
		if def.Columns[ci].Type != sqltypes.Int64 {
			return nil, fmt.Errorf("sqldb: table %q: PK column %q must be BIGINT", def.Name, pk)
		}
	}
	def.Name = name
	t, err := db.newTable(def)
	if err != nil {
		return nil, err
	}
	db.tables[name] = t
	db.declared = true
	return t, nil
}

// Table returns the named table.
func (db *DB) Table(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	return t, ok
}

// Tables returns the names of all tables.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	return out
}

// Flush makes every completed write durable. When a table was declared or
// loaded since the last Flush it packs a new image: the segment of every
// loaded table, in catalog order, copied by page range from the file the
// table reads — the image this handle opened or the loose segment BulkLoad
// wrote — is written and synced under a temporary name, and so is the
// catalog; then the image is renamed into place, then the catalog, the
// directory is synced, and the loose segments are deleted. The tables keep
// reading the files they read before, which stay open once replaced or
// deleted, so a pack changes nothing a reader sees. A crash between the two
// renames leaves an image the catalog does not describe, which Open refuses.
// Flush must not run concurrently with a BulkLoad.
func (db *DB) Flush() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	names := make([]string, 0, len(db.tables))
	packed := db.declared
	for name, t := range db.tables {
		names = append(names, name)
		packed = packed || t.loose
	}
	if packed {
		if err := db.packLocked(names); err != nil {
			return err
		}
	}
	d, err := os.Open(db.dir)
	if err != nil {
		return fmt.Errorf("sqldb: %w", err)
	}
	if err := firstError(d.Sync(), d.Close()); err != nil || !packed {
		return err
	}
	for _, t := range db.tables {
		if t.loose {
			if err := os.Remove(t.loosePath()); err != nil {
				return fmt.Errorf("sqldb: %w", err)
			}
			t.loose = false
		}
	}
	db.declared = false
	return nil
}

// packLocked writes the catalog of the named tables and their image beside
// the live ones and renames both into place, the image first. Caller holds
// db.mu.
func (db *DB) packLocked(names []string) error {
	// The catalog lists the tables by name, for reproducible catalogs, and
	// the image holds their segments in the same order.
	slices.Sort(names)
	defs := make([]TableDef, 0, len(names))
	var segs []*storage.Segment
	for _, name := range names {
		t := db.tables[name]
		defs = append(defs, t.def)
		if t.file != nil {
			segs = append(segs, t.seg)
		}
	}
	data, err := json.MarshalIndent(defs, "", "  ")
	if err != nil {
		return err
	}
	catTmp, imageTmp := db.catalogPath()+".tmp", db.imagePath()+".tmp"
	err = writeSynced(catTmp, data)
	if err == nil {
		err = storage.WriteImage(imageTmp, db.dev, &db.clock, segs)
	}
	if err == nil {
		err = os.Rename(imageTmp, db.imagePath())
	}
	if err == nil {
		err = os.Rename(catTmp, db.catalogPath())
	}
	if err != nil {
		_ = os.Remove(catTmp) // best-effort cleanup; the write failure wins
		_ = os.Remove(imageTmp)
		return fmt.Errorf("sqldb: flush: %w", err)
	}
	return nil
}

// writeSynced writes data as the file at path and syncs it.
func writeSynced(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	err = firstError(err, f.Sync())
	return firstError(err, f.Close())
}

// Close flushes and releases all files. Every file is closed even when the
// flush fails (the directory may be gone); the first error is returned.
func (db *DB) Close() error {
	err := db.Flush()
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, f := range db.filesLocked() {
		err = firstError(err, f.Close())
	}
	db.tables, db.image = map[string]*Table{}, nil
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
// Flush, the image and the catalog (the paper's Section 4.3 storage report).
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
	return exec.Run(sel, catalogAdapter{db}, params)
}

// QueryTraced executes a SELECT and also returns the access-path trace (one
// line per planner decision) — the engine's EXPLAIN ANALYZE.
func (db *DB) QueryTraced(query string, params ...sqltypes.Value) (*exec.Relation, []string, error) {
	sel, err := sql.Parse(query)
	if err != nil {
		return nil, nil, err
	}
	db.reg.Exec.GeneralRuns.Add(1)
	return exec.RunTraced(sel, catalogAdapter{db}, params)
}

// Stmt is a prepared statement: parsed once, executable many times.
type Stmt struct {
	db    *DB
	sel   *sql.Select
	fused *exec.FusedPlan // non-nil when the statement matched a fused shape
}

// Prepare parses a SELECT for repeated execution. A statement of the workload
// (exec.Fuse: the ten texts of exec/codes.go) compiles to its fused plan,
// bound to the tables the handle has now — one that lacks a table, a column
// or a declaration its kernel trusts fails here, naming the table; any other
// statement runs on the general executor. A fused statement keeps its tables:
// BulkLoad replaces a table's contents under it.
func (db *DB) Prepare(query string) (*Stmt, error) {
	db.prepares.Add(1)
	sel, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	st := &Stmt{db: db, sel: sel}
	if !db.referenceExec {
		if st.fused, err = exec.Fuse(sel, catalogAdapter{db}); err != nil {
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
	rel, err := exec.Run(s.sel, catalogAdapter{s.db}, params)
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

// catalogAdapter exposes DB tables to the executor.
type catalogAdapter struct{ db *DB }

func (c catalogAdapter) Table(name string) (exec.Table, bool) {
	t, ok := c.db.Table(name)
	if !ok {
		return nil, false
	}
	return t, true
}

// ExecMetrics returns the handle's executor counters, which both executors
// feed.
func (c catalogAdapter) ExecMetrics() *obs.ExecMetrics { return &c.db.reg.Exec }

func colIndex(cols []ColumnDef, name string) int {
	for i, c := range cols {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}
