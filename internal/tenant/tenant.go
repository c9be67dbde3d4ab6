// Package tenant is PTLDB's multi-city tenancy layer: a Router that owns
// one database per city behind a single process, the deployment shape the
// paper's eleven-network evaluation implies. Each city's label store is a
// read-only artifact (the Public Transit Labeling observation), so an open
// tenant is just a handle, and its memory is bounded by its budget shares:
//
//   - Open once: a tenant opens on its first Acquire and stays open until
//     Router.Close. Concurrent first requests share one Open; a failed open
//     is remembered, and its error answers every later request (a damaged
//     directory is rebuilt and the process restarted). The open stays lazy,
//     not in New, so a process answers its first city sooner (DESIGN.md §14.1).
//   - Budget division: Config.Base's VectorCacheBytes and PoolPages are
//     process-wide budgets divided evenly across the tenants, so one
//     tenant's cold scan evicts only its own pages, and its tables are
//     admitted to its own vector budget, never a warm neighbour's.
//
// Per-tenant accounting (request counts, latency, open/close events,
// resident bytes) lives in obs.TenantMetrics.
package tenant

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"ptldb"
	"ptldb/internal/core"
	"ptldb/internal/obs"
	"ptldb/internal/sqldb"
	"ptldb/internal/timetable"
)

// Store is the query surface of one open database, which the serving layer
// fronts (serve.Store); *ptldb.DB satisfies it, and tests substitute fakes.
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

// DB is a tenant's database: the query surface plus Close, for Router.Close.
type DB interface {
	Store
	Close() error
}

// Config tunes the router. The zero value serves with the defaults below.
type Config struct {
	// Deprecated: MaxOpenTenants is ignored (a tenant stays open, budgets
	// divide by the tenant count). It goes when benchmark/workload.go stops
	// setting it (ROADMAP item 1).
	MaxOpenTenants int
	// Base is the open configuration of every tenant, except that its
	// VectorCacheBytes and PoolPages are process-wide budgets, of which each
	// tenant opens with an equal share. Zero selects a single database's
	// default; a negative vector-cache budget means no cache for any tenant.
	Base ptldb.Config
	// Open opens one tenant database (default ptldb.Open). The lifecycle
	// tests substitute controllable fakes through it.
	Open func(dir string, cfg ptldb.Config) (DB, error)
}

func (c Config) withDefaults() Config {
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

// share returns the open configuration of one of n tenants: Base with the
// divided budgets. Shares are floors; at most n-1 pages and bytes of each
// global budget go unused.
func (c Config) share(n int) ptldb.Config {
	cfg := c.Base
	cfg.PoolPages = max(cfg.PoolPages/n, 1)
	cfg.VectorCacheBytes /= int64(n)
	if cfg.VectorCacheBytes == 0 {
		// ptldb treats 0 as "use the default"; a budget too small (or too
		// negative) to divide means no cache instead.
		cfg.VectorCacheBytes = -1
	}
	return cfg
}

// errClosed is what Acquire returns once the router is closed.
var errClosed = errors.New("tenant: router closed")

// Tenant is one city: its counters and, once opened, its database.
type Tenant struct {
	dir string
	met *obs.TenantMetrics
	// once runs the open, or Router.Close's mark if that comes first. It sets
	// err, or db and resident (the vector bytes Open admitted, which no later
	// call changes) before met.Opens counts the open; Close drops db.
	once     sync.Once
	db       DB
	resident int64
	err      error
}

// DB returns the tenant's open database, nil once the router has closed it.
func (t *Tenant) DB() DB { return t.db }

// Metrics returns the tenant's counters.
func (t *Tenant) Metrics() *obs.TenantMetrics { return t.met }

// Deprecated: Release does nothing, since a tenant stays open until
// Router.Close. It goes when benchmark/ stops calling it (ROADMAP item 1).
func (t *Tenant) Release() {}

// Router routes city names to tenants; its map never changes after New.
type Router struct {
	cfg     Config
	tenants map[string]*Tenant
	closed  atomic.Bool
}

// New builds a router over dir's subdirectories that hold a database image
// (sqldb.ImageName), each a tenant named after it. None is opened yet.
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
		if _, err := os.Stat(filepath.Join(sub, sqldb.ImageName)); err != nil {
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
	r := &Router{cfg: cfg.withDefaults(), tenants: make(map[string]*Tenant, len(dirs))}
	for name, dir := range dirs {
		if name == "" {
			return nil, fmt.Errorf("tenant: empty tenant name for %s", dir)
		}
		r.tenants[name] = &Tenant{dir: dir, met: &obs.TenantMetrics{}}
	}
	return r, nil
}

// Names lists the tenants, sorted.
func (r *Router) Names() []string {
	out := make([]string, 0, len(r.tenants))
	for name := range r.tenants {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Metrics returns name's counters, or nil for an unknown tenant (the
// serving layer's 404, before admission).
func (r *Router) Metrics(name string) *obs.TenantMetrics {
	t := r.tenants[name]
	if t == nil {
		return nil
	}
	return t.met
}

// Acquire returns name's tenant, opening its database on the first call.
// Concurrent first calls share one Open; a failed open's error is returned
// to every later call without opening again.
func (r *Router) Acquire(name string) (*Tenant, error) {
	t := r.tenants[name]
	if t == nil {
		return nil, fmt.Errorf("tenant: unknown city %q: %w", name, core.ErrInvalidArgument)
	}
	t.once.Do(func() {
		db, err := r.cfg.Open(t.dir, r.cfg.share(len(r.tenants)))
		if err != nil {
			t.err = fmt.Errorf("tenant: open %s: %w", name, err)
			return
		}
		if vc := db.Snapshot().VCache; vc != nil {
			t.resident = vc.ResidentBytes
		}
		t.db = db
		t.met.Opens.Add(1)
	})
	if t.err != nil {
		return nil, t.err
	}
	if r.closed.Load() {
		return nil, errClosed
	}
	return t, nil
}

// Snapshot copies every tenant's counters and lifecycle state, keyed by city,
// with no lock: a tenant is open between its Opens and its Closes count.
func (r *Router) Snapshot() map[string]obs.TenantSnapshot {
	out := make(map[string]obs.TenantSnapshot, len(r.tenants))
	for name, t := range r.tenants {
		var resident int64
		open := t.met.Opens.Load() > t.met.Closes.Load()
		if open {
			resident = t.resident
		}
		out[name] = t.met.Snapshot(open, resident)
	}
	return out
}

// Close closes every tenant database that opened, exactly once, and drops
// it, so a closed router keeps no database's memory reachable; it returns
// the first error, and every later Acquire fails and opens nothing. Call it
// after the server has drained: a query still running loses its database.
func (r *Router) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	var first error
	for _, t := range r.tenants {
		t.once.Do(func() { t.err = errClosed })
		if t.db == nil {
			continue
		}
		t.met.Closes.Add(1)
		if err := t.db.Close(); err != nil && first == nil {
			first = err
		}
		t.db = nil
	}
	return first
}
