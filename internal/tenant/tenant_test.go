package tenant

// tenant_test.go exercises the router's lifecycle contracts against
// controllable fake databases: concurrent first requests coalesce into one
// Open, pinned tenants survive LRU pressure, eviction picks the
// least-recently-used idle tenant, budgets divide evenly, and an 8-tenant
// churn stays race-clean and never queries a closed database
// (scripts/check.sh runs this package with -race).

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ptldb"
	"ptldb/internal/core"
	"ptldb/internal/obs"
	"ptldb/internal/timetable"
)

// fakeDB answers queries with synthetic values and fails loudly when used
// after Close — the invariant the pinning protocol must uphold.
type fakeDB struct {
	name    string
	closed  atomic.Bool
	queries atomic.Int64
}

func (f *fakeDB) enter() error {
	f.queries.Add(1)
	if f.closed.Load() {
		return fmt.Errorf("fake %s: query after Close", f.name)
	}
	return nil
}

func (f *fakeDB) EarliestArrival(s, g timetable.StopID, t timetable.Time) (timetable.Time, bool, error) {
	if err := f.enter(); err != nil {
		return 0, false, err
	}
	return t + 60, true, nil
}

func (f *fakeDB) LatestDeparture(s, g timetable.StopID, t timetable.Time) (timetable.Time, bool, error) {
	if err := f.enter(); err != nil {
		return 0, false, err
	}
	return t - 60, true, nil
}

func (f *fakeDB) ShortestDuration(s, g timetable.StopID, t, tEnd timetable.Time) (timetable.Time, bool, error) {
	if err := f.enter(); err != nil {
		return 0, false, err
	}
	return 300, true, nil
}

func (f *fakeDB) EAKNN(set string, q timetable.StopID, t timetable.Time, k int) ([]core.Result, error) {
	return nil, f.enter()
}

func (f *fakeDB) LDKNN(set string, q timetable.StopID, t timetable.Time, k int) ([]core.Result, error) {
	return nil, f.enter()
}

func (f *fakeDB) EAOTM(set string, q timetable.StopID, t timetable.Time) ([]core.Result, error) {
	return nil, f.enter()
}

func (f *fakeDB) LDOTM(set string, q timetable.StopID, t timetable.Time) ([]core.Result, error) {
	return nil, f.enter()
}

func (f *fakeDB) ExplainPrepared(name string) (string, error) { return "FakePlan\n", f.enter() }
func (f *fakeDB) ExplainNames() []string                      { return []string{"v2v-ea"} }
func (f *fakeDB) Snapshot() obs.Snapshot                      { return obs.Snapshot{} }

func (f *fakeDB) Close() error {
	if f.closed.Swap(true) {
		return fmt.Errorf("fake %s: double Close", f.name)
	}
	return nil
}

// opener is a Config.Open hook recording every open: its count per tenant,
// the configs handed down, and the live handles for post-hoc inspection.
type opener struct {
	delay time.Duration
	mu    sync.Mutex
	count map[string]int
	cfgs  []ptldb.Config
	dbs   map[string][]*fakeDB
}

func newOpener(delay time.Duration) *opener {
	return &opener{delay: delay, count: map[string]int{}, dbs: map[string][]*fakeDB{}}
}

func (o *opener) open(dir string, cfg ptldb.Config) (DB, error) {
	if o.delay > 0 {
		time.Sleep(o.delay)
	}
	name := filepath.Base(dir)
	db := &fakeDB{name: name}
	o.mu.Lock()
	o.count[name]++
	o.cfgs = append(o.cfgs, cfg)
	o.dbs[name] = append(o.dbs[name], db)
	o.mu.Unlock()
	return db, nil
}

func (o *opener) opens(name string) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.count[name]
}

func dirs(names ...string) map[string]string {
	out := map[string]string{}
	for _, n := range names {
		out[n] = "/fake/" + n
	}
	return out
}

func TestConcurrentFirstOpenSingleflight(t *testing.T) {
	op := newOpener(10 * time.Millisecond)
	r, err := NewFromDirs(dirs("austin"), Config{Open: op.open})
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	var wg sync.WaitGroup
	handles := make([]*Tenant, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := r.Acquire("austin")
			if err != nil {
				t.Errorf("Acquire: %v", err)
				return
			}
			handles[i] = h
		}(i)
	}
	wg.Wait()
	if got := op.opens("austin"); got != 1 {
		t.Fatalf("%d concurrent first requests ran %d opens, want 1", n, got)
	}
	if got := r.Metrics("austin").Opens.Load(); got != 1 {
		t.Errorf("opens counter = %d, want 1", got)
	}
	for i, h := range handles {
		if h == nil {
			t.Fatalf("handle %d missing", i)
		}
		if h.DB() != handles[0].DB() {
			t.Errorf("handle %d got a different database", i)
		}
		h.Release()
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPinnedTenantSurvivesLRUPressure(t *testing.T) {
	op := newOpener(0)
	r, err := NewFromDirs(dirs("a", "b", "c"), Config{MaxOpenTenants: 1, Open: op.open})
	if err != nil {
		t.Fatal(err)
	}
	ha, err := r.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	// a is pinned: opening b must exceed the cap instead of closing a.
	hb, err := r.Acquire("b")
	if err != nil {
		t.Fatal(err)
	}
	if ha.DB().(*fakeDB).closed.Load() {
		t.Fatal("pinned tenant a was closed by LRU pressure")
	}
	if got := r.OpenCount(); got != 2 {
		t.Errorf("open count = %d, want 2 (cap exceeded while every tenant is pinned)", got)
	}
	// Queries through the pinned handle still work.
	if _, _, err := ha.DB().EarliestArrival(1, 2, 28800); err != nil {
		t.Errorf("query through pinned tenant: %v", err)
	}
	// b goes idle while a stays pinned: opening c may close only b.
	hb.Release()
	hc, err := r.Acquire("c")
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Release()
	if !hb.DB().(*fakeDB).closed.Load() {
		t.Error("idle tenant b not closed when c opened over the cap")
	}
	if ha.DB().(*fakeDB).closed.Load() {
		t.Error("pinned tenant a closed while its query was still in flight")
	}
	ha.Release()
	if got := r.Metrics("b").Closes.Load(); got != 1 {
		t.Errorf("b's closes counter = %d, want 1", got)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	op := newOpener(0)
	r, err := NewFromDirs(dirs("a", "b", "c"), Config{MaxOpenTenants: 2, Open: op.open})
	if err != nil {
		t.Fatal(err)
	}
	use := func(name string) *fakeDB {
		h, err := r.Acquire(name)
		if err != nil {
			t.Fatalf("Acquire(%s): %v", name, err)
		}
		db := h.DB().(*fakeDB)
		h.Release()
		return db
	}
	dba := use("a")
	dbb := use("b")
	use("a") // refresh a: b becomes the LRU
	use("c") // evicts b
	if !dbb.closed.Load() {
		t.Error("LRU tenant b not evicted")
	}
	if dba.closed.Load() {
		t.Error("recently used tenant a evicted")
	}
	// A fresh acquisition of b reopens it.
	if db2 := use("b"); db2 == dbb || db2.closed.Load() {
		t.Error("b not reopened with a fresh handle")
	}
	if got := op.opens("b"); got != 2 {
		t.Errorf("b opened %d times, want 2", got)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBudgetShares checks Base's process-wide budgets divide evenly into
// every tenant's open config, and that zero budgets divide the
// single-database defaults.
func TestBudgetShares(t *testing.T) {
	for _, tc := range []struct {
		name      string
		maxOpen   int
		base      ptldb.Config
		wantPages int
		wantBytes int64
	}{
		{"set", 4, ptldb.Config{Device: "ram", PoolPages: 4096, VectorCacheBytes: 64 << 20}, 1024, 16 << 20},
		{"defaults", 2, ptldb.Config{Device: "ram"}, 65536, 128 << 20},
	} {
		op := newOpener(0)
		r, err := NewFromDirs(dirs("a", "b"), Config{MaxOpenTenants: tc.maxOpen, Base: tc.base, Open: op.open})
		if err != nil {
			t.Fatal(err)
		}
		h, err := r.Acquire("a")
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
		op.mu.Lock()
		cfg := op.cfgs[0]
		op.mu.Unlock()
		if cfg.PoolPages != tc.wantPages {
			t.Errorf("%s: pool share = %d pages, want %d", tc.name, cfg.PoolPages, tc.wantPages)
		}
		if cfg.VectorCacheBytes != tc.wantBytes {
			t.Errorf("%s: vcache share = %d bytes, want %d", tc.name, cfg.VectorCacheBytes, tc.wantBytes)
		}
		if cfg.Device != "ram" {
			t.Errorf("%s: Base.Device %q not forwarded", tc.name, cfg.Device)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestUnknownTenant(t *testing.T) {
	r, err := NewFromDirs(dirs("a"), Config{Open: newOpener(0).open})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Acquire("nope"); !core.IsInvalidArgument(err) {
		t.Errorf("Acquire(unknown) = %v, want invalid-argument", err)
	}
	if r.Metrics("nope") != nil {
		t.Error("Metrics(unknown) != nil")
	}
}

func TestNewScansSubdirectories(t *testing.T) {
	root := t.TempDir()
	for _, name := range []string{"austin", "berlin"} {
		dir := filepath.Join(root, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "catalog.json"), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A subdirectory without a catalog and a plain file are both skipped.
	if err := os.MkdirAll(filepath.Join(root, "not-a-db"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "README"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := New(root, Config{Open: newOpener(0).open})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Names(); len(got) != 2 || got[0] != "austin" || got[1] != "berlin" {
		t.Errorf("Names() = %v, want [austin berlin]", got)
	}
	if _, err := New(t.TempDir(), Config{}); err == nil {
		t.Error("New over an empty directory must fail")
	}
}

func TestSnapshotRollup(t *testing.T) {
	op := newOpener(0)
	r, err := NewFromDirs(dirs("a", "b"), Config{MaxOpenTenants: 2, Open: op.open})
	if err != nil {
		t.Fatal(err)
	}
	h, err := r.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	h.Metrics().Requests.Add(3)
	h.Release()
	snaps := r.Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("snapshot has %d tenants, want 2", len(snaps))
	}
	if !snaps["a"].Open || snaps["a"].Requests != 3 || snaps["a"].Opens != 1 {
		t.Errorf("a snapshot = %+v", snaps["a"])
	}
	if snaps["b"].Open || snaps["b"].Opens != 0 {
		t.Errorf("cold b snapshot = %+v", snaps["b"])
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if snaps := r.Snapshot(); snaps["a"].Open || snaps["a"].Closes != 1 {
		t.Errorf("post-close a snapshot = %+v", snaps["a"])
	}
}

// TestChurnRace is the 8-tenant smoke in the style of the vcache eviction
// battery: 8 goroutines acquire random tenants through a cap of 3, query,
// and release. The fakes turn any query-after-close into an error, so the
// race detector plus the fakes' own checks cover the pinning protocol.
func TestChurnRace(t *testing.T) {
	op := newOpener(0)
	names := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}
	r, err := NewFromDirs(dirs(names...), Config{MaxOpenTenants: 3, Open: op.open})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				name := names[rng.Intn(len(names))]
				h, err := r.Acquire(name)
				if err != nil {
					t.Errorf("Acquire(%s): %v", name, err)
					return
				}
				if _, _, err := h.DB().EarliestArrival(1, 2, 28800); err != nil {
					t.Errorf("query %s: %v", name, err)
				}
				h.Release()
			}
		}(g)
	}
	wg.Wait()
	if got := r.OpenCount(); got > 3 {
		t.Errorf("open count = %d after quiesce, want <= 3", got)
	}
	// Conservation: every open has either a matching close or a live handle.
	var opens, closes, live uint64
	for _, name := range names {
		m := r.Metrics(name)
		opens += m.Opens.Load()
		closes += m.Closes.Load()
	}
	live = uint64(r.OpenCount())
	if opens != closes+live {
		t.Errorf("opens %d != closes %d + live %d", opens, closes, live)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Every fake the opener ever produced must now be closed exactly once
	// (double closes error inside the fakes).
	op.mu.Lock()
	defer op.mu.Unlock()
	for name, dbs := range op.dbs {
		for _, db := range dbs {
			if !db.closed.Load() {
				t.Errorf("%s handle leaked open after router Close", name)
			}
		}
	}
}
