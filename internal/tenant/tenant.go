// Package tenant is PTLDB's multi-city tenancy layer: a Router that owns
// many lazily-opened databases — one per city — behind a single process,
// the deployment shape the paper's eleven-network evaluation implies. Each
// city's label store is an independent read-only artifact (the Public
// Transit Labeling observation), which makes the tenant the natural unit of
// isolation and eviction:
//
//   - Lazy open: a tenant's database opens on its first request. Concurrent
//     first requests coalesce behind a singleflight latch, the module's
//     only one, so N cold requests cost one Open, which decodes every table
//     its vector cache admits before the first of them is answered.
//   - LRU close: at most Config.MaxOpenTenants databases are open at once;
//     opening one more closes the least-recently-used idle tenant. Requests
//     pin their tenant for the duration of the execution, so a database is
//     never closed under a running query — when every open tenant is pinned
//     the cap is temporarily exceeded rather than blocking admission.
//   - Budget division: Config.Base's VectorCacheBytes and PoolPages are
//     process-wide budgets divided evenly across the MaxOpenTenants slots.
//     Every tenant database gets its own share, so one tenant's cold scan
//     can evict only its own pages, and its tables are admitted to its own
//     vector budget, never a warm neighbour's (the benchmark's
//     http_tenants_open workload serves two cities this way).
//
// Per-tenant accounting (request counts, latency, open/close events,
// resident bytes) lives in obs.TenantMetrics structs that outlive the
// open/close cycles of their databases.
package tenant

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"ptldb"
	"ptldb/internal/core"
	"ptldb/internal/obs"
	"ptldb/internal/sqldb"
	"ptldb/internal/timetable"
)

// Store is the query surface of one open database: what a tenant's queries
// call, and what the serving layer fronts (serve.Store is this type).
// *ptldb.DB satisfies it; the lifecycle tests substitute fakes.
type Store interface {
	EarliestArrival(s, g timetable.StopID, t timetable.Time) (timetable.Time, bool, error)
	LatestDeparture(s, g timetable.StopID, t timetable.Time) (timetable.Time, bool, error)
	ShortestDuration(s, g timetable.StopID, t, tEnd timetable.Time) (timetable.Time, bool, error)
	EAKNN(set string, q timetable.StopID, t timetable.Time, k int) ([]core.Result, error)
	LDKNN(set string, q timetable.StopID, t timetable.Time, k int) ([]core.Result, error)
	EAOTM(set string, q timetable.StopID, t timetable.Time) ([]core.Result, error)
	LDOTM(set string, q timetable.StopID, t timetable.Time) ([]core.Result, error)
	ExplainPrepared(name string) (string, error)
	ExplainNames() []string
	Snapshot() obs.Snapshot
}

// DB is the per-tenant database the router manages: the query surface plus
// Close, which the router calls on LRU eviction and on Router.Close.
type DB interface {
	Store
	Close() error
}

// Config tunes the router. The zero value serves with the defaults below.
type Config struct {
	// MaxOpenTenants caps concurrently open tenant databases (default 4).
	// The cap is soft against pinned tenants: when every open database has a
	// query in flight, one more opens rather than blocking or closing a
	// database under a running query.
	MaxOpenTenants int
	// Base is the open configuration of every tenant (device, trace hooks),
	// except that its VectorCacheBytes and PoolPages are process-wide
	// budgets: each tenant opens with 1/MaxOpenTenants of each, so tenants
	// cannot evict each other's pages or take each other's vector shares. Zero selects the default
	// of a single database (ptldb.DefaultVectorCacheBytes,
	// sqldb.DefaultPoolPages); a negative vector-cache budget means no cache
	// for any tenant.
	Base ptldb.Config
	// Open opens one tenant database (default ptldb.Open). The lifecycle
	// tests substitute controllable fakes through it.
	Open func(dir string, cfg ptldb.Config) (DB, error)
}

func (c Config) withDefaults() Config {
	if c.MaxOpenTenants <= 0 {
		c.MaxOpenTenants = 4
	}
	if c.Base.VectorCacheBytes == 0 {
		c.Base.VectorCacheBytes = ptldb.DefaultVectorCacheBytes
	}
	if c.Base.PoolPages == 0 {
		c.Base.PoolPages = sqldb.DefaultPoolPages
	}
	if c.Open == nil {
		c.Open = func(dir string, cfg ptldb.Config) (DB, error) { return ptldb.Open(dir, cfg) }
	}
	return c
}

// share returns the per-tenant open configuration: Base with the divided
// budgets. Shares are floors; at most MaxOpenTenants-1 pages and bytes of
// each global budget go unused.
func (c Config) share() ptldb.Config {
	cfg := c.Base
	cfg.PoolPages = max(cfg.PoolPages/c.MaxOpenTenants, 1)
	cfg.VectorCacheBytes /= int64(c.MaxOpenTenants)
	if cfg.VectorCacheBytes == 0 {
		// ptldb treats 0 as "use the default"; a budget too small (or too
		// negative) to divide means no cache instead.
		cfg.VectorCacheBytes = -1
	}
	return cfg
}

// slot is one tenant's lifecycle state. The metrics struct and the slot
// itself live for the router's lifetime; only db cycles open and closed.
type slot struct {
	name string
	dir  string
	met  *obs.TenantMetrics

	// Guarded by Router.mu. The latch is acquisition level 10: the opener
	// holds it while re-taking the router mutex (level 20) to publish, so the
	// latch must order strictly below the mutex.
	opening chan struct{} // lockcheck:latch level=10 — non-nil while an Open is in flight
	db      DB            // nil while closed
	pins    int           // in-flight acquisitions; > 0 blocks LRU close
	lastUse uint64        // router sequence number of the last acquisition
}

// Router routes city names to lazily-opened tenant databases.
type Router struct {
	cfg Config

	// mu guards every slot's lifecycle fields and the LRU sequence. It is
	// never held across an Open, a Close or a blocking channel operation —
	// those happen between critical sections, exactly like the pool's frame
	// loads. Acquisition level 20: taken after an opening latch
	// (level 10), never while another shard-class mutex is held
	// (lockordercheck).
	mu    sync.Mutex // lockcheck:shard level=20
	slots map[string]*slot
	seq   uint64
}

// New builds a router over dir, mapping every subdirectory that contains a
// database catalog to a tenant named after the subdirectory. No database is
// opened yet.
func New(dir string, cfg Config) (*Router, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("tenant: scan %s: %w", dir, err)
	}
	dirs := map[string]string{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		sub := filepath.Join(dir, e.Name())
		if _, err := os.Stat(filepath.Join(sub, "catalog.json")); err != nil {
			continue
		}
		dirs[e.Name()] = sub
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("tenant: no database subdirectories under %s", dir)
	}
	return NewFromDirs(dirs, cfg)
}

// NewFromDirs builds a router over an explicit city → directory mapping (the
// benchmark's datasets live in per-city directories, not under one parent).
func NewFromDirs(dirs map[string]string, cfg Config) (*Router, error) {
	if len(dirs) == 0 {
		return nil, fmt.Errorf("tenant: no tenants")
	}
	r := &Router{cfg: cfg.withDefaults(), slots: make(map[string]*slot, len(dirs))}
	for name, dir := range dirs {
		if name == "" {
			return nil, fmt.Errorf("tenant: empty tenant name for %s", dir)
		}
		r.slots[name] = &slot{name: name, dir: dir, met: &obs.TenantMetrics{}}
	}
	return r, nil
}

// Names lists the tenants, sorted.
func (r *Router) Names() []string {
	out := make([]string, 0, len(r.slots))
	for name := range r.slots {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Metrics returns name's counters, or nil for an unknown tenant. The slot
// map is immutable after New, so no lock is needed — the serving layer calls
// this on every request to 404 unknown cities before admission.
func (r *Router) Metrics(name string) *obs.TenantMetrics {
	s := r.slots[name]
	if s == nil {
		return nil
	}
	return s.met
}

// Tenant is one pinned acquisition: the database is guaranteed open until
// Release. Release exactly once.
type Tenant struct {
	r  *Router
	s  *slot
	db DB
}

// DB returns the pinned database.
func (t *Tenant) DB() DB { return t.db }

// Metrics returns the tenant's counters.
func (t *Tenant) Metrics() *obs.TenantMetrics { return t.s.met }

// Release unpins the tenant, making it eligible for LRU close again.
func (t *Tenant) Release() {
	t.r.mu.Lock()
	t.s.pins--
	t.r.mu.Unlock()
}

// Acquire returns name's database, opening it (and closing an LRU victim)
// if necessary, pinned against close until Release. Concurrent acquisitions
// of a cold tenant coalesce: one runs Open while the rest wait on the latch
// and share the handle.
func (r *Router) Acquire(name string) (*Tenant, error) {
	s := r.slots[name]
	if s == nil {
		return nil, fmt.Errorf("tenant: unknown city %q: %w", name, core.ErrInvalidArgument)
	}
	for {
		r.mu.Lock()
		if s.db != nil {
			s.pins++
			r.seq++
			s.lastUse = r.seq
			t := &Tenant{r: r, s: s, db: s.db}
			r.mu.Unlock()
			return t, nil
		}
		wait := s.opening
		var latch chan struct{}
		var victims []DB
		if wait == nil {
			latch = make(chan struct{})
			s.opening = latch
			victims = r.evictLocked()
		}
		r.mu.Unlock()
		if wait != nil {
			// Someone else is opening; wait outside the lock and re-check.
			// The reopened database may already be closed again by the time
			// this caller re-takes the lock, in which case it loops and opens.
			<-wait
			continue
		}

		// This caller owns the open. Victims close first — their budget
		// shares are notionally handed to the newcomer — and both the closes
		// and the open do device I/O, so they run outside the router mutex.
		var closeErr error
		for _, v := range victims {
			if err := v.Close(); err != nil && closeErr == nil {
				closeErr = err
			}
		}
		var db DB
		err := closeErr
		if err == nil {
			db, err = r.cfg.Open(s.dir, r.cfg.share())
		}
		r.mu.Lock()
		s.opening = nil
		// close is non-blocking, so releasing the latch under the lock is
		// safe.
		close(latch)
		if err != nil {
			r.mu.Unlock()
			return nil, fmt.Errorf("tenant: open %s: %w", name, err)
		}
		s.db = db
		s.pins++
		r.seq++
		s.lastUse = r.seq
		t := &Tenant{r: r, s: s, db: db}
		r.mu.Unlock()
		s.met.Opens.Add(1)
		return t, nil
	}
}

// evictLocked detaches least-recently-used unpinned open tenants until the
// open count — databases plus in-flight opens, including the caller's own
// latch — fits MaxOpenTenants, returning the detached handles for the caller
// to close outside the lock. When every candidate is pinned the cap is
// exceeded instead: a query in flight must never lose its database.
func (r *Router) evictLocked() []DB {
	var victims []DB
	for {
		open := 0
		var lru *slot
		for _, s := range r.slots {
			if s.opening != nil {
				open++
			}
			if s.db == nil {
				continue
			}
			open++
			if s.pins == 0 && (lru == nil || s.lastUse < lru.lastUse) {
				lru = s
			}
		}
		if open <= r.cfg.MaxOpenTenants || lru == nil {
			return victims
		}
		victims = append(victims, lru.db)
		lru.db = nil
		lru.met.Closes.Add(1)
	}
}

// Snapshot copies every tenant's counters and lifecycle state, keyed by
// city. Resident bytes are read from each open database's registry outside
// the router mutex; a tenant closing concurrently merely snapshots as its
// final counter state (registries are plain atomics, safe after Close).
func (r *Router) Snapshot() map[string]obs.TenantSnapshot {
	type item struct {
		name string
		met  *obs.TenantMetrics
		db   DB
	}
	items := make([]item, 0, len(r.slots))
	r.mu.Lock()
	for name, s := range r.slots {
		items = append(items, item{name: name, met: s.met, db: s.db})
	}
	r.mu.Unlock()
	out := make(map[string]obs.TenantSnapshot, len(items))
	for _, it := range items {
		var resident int64
		if it.db != nil {
			if vc := it.db.Snapshot().VCache; vc != nil {
				resident = vc.ResidentBytes
			}
		}
		out[it.name] = it.met.Snapshot(it.db != nil, resident)
	}
	return out
}

// OpenCount reports how many tenant databases are currently open, for tests
// and the /tenants listing.
func (r *Router) OpenCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.slots {
		if s.db != nil {
			n++
		}
	}
	return n
}

// Close closes every open tenant database and returns the first error. Call
// it after the server has drained: a pinned tenant is closed anyway (leaving
// it open would leak the handle on shutdown), so in-flight queries must be
// gone.
func (r *Router) Close() error {
	r.mu.Lock()
	var dbs []DB
	for _, s := range r.slots {
		if s.db != nil {
			dbs = append(dbs, s.db)
			s.db = nil
			s.met.Closes.Add(1)
		}
	}
	r.mu.Unlock()
	var first error
	for _, db := range dbs {
		if err := db.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
