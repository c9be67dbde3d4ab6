package tenant

// tenant_test.go exercises the router's lifecycle contracts against
// controllable fake databases: concurrent first requests coalesce into one
// Open, a failed open is remembered, budgets divide evenly across the
// tenants, Close closes each opened handle once and refuses later
// acquisitions, and an 8-tenant churn stays race-clean and never queries a
// closed database (scripts/check.sh runs this package with -race).

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
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
// after Close or closed twice.
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
func (f *fakeDB) Snapshot() obs.Snapshot {
	return obs.Snapshot{VCache: &obs.VCacheSnapshot{ResidentBytes: 4096}}
}

func (f *fakeDB) Close() error {
	if f.closed.Swap(true) {
		return fmt.Errorf("fake %s: double Close", f.name)
	}
	return nil
}

// opener is a Config.Open hook recording every open: its count per tenant,
// the configs handed down, and the live handles for post-hoc inspection.
// Opening the tenant named fail returns an error instead of a handle.
type opener struct {
	delay time.Duration
	fail  string
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
	o.mu.Lock()
	defer o.mu.Unlock()
	o.count[name]++
	o.cfgs = append(o.cfgs, cfg)
	if name == o.fail {
		return nil, fmt.Errorf("fake %s: damaged image", name)
	}
	db := &fakeDB{name: name}
	o.dbs[name] = append(o.dbs[name], db)
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

// TestBudgetShares checks Base's process-wide budgets divide evenly by the
// number of tenants into every tenant's open config, that zero budgets
// divide the single-database defaults, and that MaxOpenTenants changes
// nothing.
func TestBudgetShares(t *testing.T) {
	for _, tc := range []struct {
		name      string
		tenants   []string
		maxOpen   int
		base      ptldb.Config
		wantPages int
		wantBytes int64
	}{
		{"set", []string{"a", "b", "c", "d"}, 0, ptldb.Config{Device: "ram", PoolPages: 4096, VectorCacheBytes: 64 << 20}, 1024, 16 << 20},
		{"set, MaxOpenTenants ignored", []string{"a", "b", "c", "d"}, 1, ptldb.Config{Device: "ram", PoolPages: 4096, VectorCacheBytes: 64 << 20}, 1024, 16 << 20},
		{"defaults", []string{"a", "b"}, 0, ptldb.Config{Device: "ram"}, 65536, 128 << 20},
		{"defaults, MaxOpenTenants ignored", []string{"a", "b"}, 8, ptldb.Config{Device: "ram"}, 65536, 128 << 20},
		{"too small to divide", []string{"a", "b", "c"}, 0, ptldb.Config{Device: "ram", PoolPages: 2, VectorCacheBytes: 2}, 1, -1},
	} {
		op := newOpener(0)
		r, err := NewFromDirs(dirs(tc.tenants...), Config{MaxOpenTenants: tc.maxOpen, Base: tc.base, Open: op.open})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range tc.tenants {
			if _, err := r.Acquire(name); err != nil {
				t.Fatal(err)
			}
		}
		op.mu.Lock()
		cfgs := op.cfgs
		op.mu.Unlock()
		if len(cfgs) != len(tc.tenants) {
			t.Fatalf("%s: %d opens for %d tenants", tc.name, len(cfgs), len(tc.tenants))
		}
		for _, cfg := range cfgs {
			if cfg.PoolPages != tc.wantPages {
				t.Errorf("%s: pool share = %d pages, want %d", tc.name, cfg.PoolPages, tc.wantPages)
			}
			if cfg.VectorCacheBytes != tc.wantBytes {
				t.Errorf("%s: vcache share = %d bytes, want %d", tc.name, cfg.VectorCacheBytes, tc.wantBytes)
			}
			if cfg.Device != "ram" {
				t.Errorf("%s: Base.Device %q not forwarded", tc.name, cfg.Device)
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFailedOpenRemembered: a tenant whose Open fails costs one Open, however
// many requests arrive together or after; every one of them gets that open's
// error, and the other tenants still answer.
func TestFailedOpenRemembered(t *testing.T) {
	op := newOpener(10 * time.Millisecond)
	op.fail = "austin"
	r, err := NewFromDirs(dirs("austin", "berlin"), Config{Open: op.open})
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := r.Acquire("austin")
			if h != nil {
				t.Errorf("Acquire of a failing tenant returned a handle")
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	if got := op.opens("austin"); got != 1 {
		t.Fatalf("%d concurrent first requests ran %d opens, want 1", n, got)
	}
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "damaged image") {
			t.Errorf("request %d: error %v, want the open's error", i, err)
		}
	}
	// A later request gets the same error and opens nothing.
	if _, err := r.Acquire("austin"); err == nil || err.Error() != errs[0].Error() {
		t.Errorf("request %d: error %v, want %v", n+1, err, errs[0])
	}
	if got := op.opens("austin"); got != 1 {
		t.Errorf("a request after the failed open ran another: %d opens, want 1", got)
	}
	h, err := r.Acquire("berlin")
	if err != nil {
		t.Fatalf("healthy tenant: %v", err)
	}
	if _, _, err := h.DB().EarliestArrival(1, 2, 28800); err != nil {
		t.Errorf("healthy tenant query: %v", err)
	}
	snaps := r.Snapshot()
	if a := snaps["austin"]; a.Open || a.Opens != 0 {
		t.Errorf("failed tenant snapshot = %+v, want closed with no opens", a)
	}
	if !snaps["berlin"].Open {
		t.Errorf("healthy tenant snapshot = %+v, want open", snaps["berlin"])
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAcquireAfterClose: Close closes each opened handle once and drops it, a
// second Close does nothing, and every later Acquire fails — on an opened
// tenant and on a never-opened one — without opening anything.
func TestAcquireAfterClose(t *testing.T) {
	op := newOpener(0)
	r, err := NewFromDirs(dirs("a", "b"), Config{Open: op.open})
	if err != nil {
		t.Fatal(err)
	}
	h, err := r.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if h.DB() != nil {
		t.Error("a closed router still holds tenant a's database")
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v (the fakes fail a double close)", err)
	}
	for _, name := range []string{"a", "b"} {
		if h, err := r.Acquire(name); err == nil || h != nil {
			t.Errorf("Acquire(%s) after Close = %v, %v; want an error", name, h, err)
		}
	}
	if a, b := op.opens("a"), op.opens("b"); a != 1 || b != 0 {
		t.Errorf("opens a/b = %d/%d, want 1/0", a, b)
	}
	if !op.dbs["a"][0].closed.Load() {
		t.Error("opened tenant a not closed by Close")
	}
	if m := r.Metrics("a"); m.Closes.Load() != 1 {
		t.Errorf("a's closes counter = %d, want 1", m.Closes.Load())
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
	r, err := NewFromDirs(dirs("a", "b"), Config{Open: op.open})
	if err != nil {
		t.Fatal(err)
	}
	h, err := r.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	h.Metrics().Requests.Add(3)
	snaps := r.Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("snapshot has %d tenants, want 2", len(snaps))
	}
	if !snaps["a"].Open || snaps["a"].Requests != 3 || snaps["a"].Opens != 1 || snaps["a"].ResidentBytes != 4096 {
		t.Errorf("a snapshot = %+v", snaps["a"])
	}
	if snaps["b"].Open || snaps["b"].Opens != 0 {
		t.Errorf("cold b snapshot = %+v", snaps["b"])
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if snaps := r.Snapshot(); snaps["a"].Open || snaps["a"].Closes != 1 || snaps["a"].ResidentBytes != 0 {
		t.Errorf("post-close a snapshot = %+v", snaps["a"])
	}
}

// TestChurnRace is the 8-tenant smoke: 8 goroutines acquire random tenants
// and query them, taking a lock-free Snapshot now and then, then Close runs.
// The fakes turn a query after close and a double close into errors, so the
// race detector plus the fakes' own checks cover the open-once contract:
// each tenant opens exactly once, no query reaches a closed handle, and
// Close closes each handle exactly once.
func TestChurnRace(t *testing.T) {
	op := newOpener(time.Millisecond)
	names := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}
	r, err := NewFromDirs(dirs(names...), Config{Open: op.open})
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
				if i%50 == 0 {
					r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	for _, name := range names {
		if got := op.opens(name); got != 1 {
			t.Errorf("%s opened %d times, want 1", name, got)
		}
		if m := r.Metrics(name); m.Opens.Load() != 1 || m.Closes.Load() != 0 {
			t.Errorf("%s opens/closes = %d/%d before Close, want 1/0", name, m.Opens.Load(), m.Closes.Load())
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	op.mu.Lock()
	defer op.mu.Unlock()
	for _, name := range names {
		if dbs := op.dbs[name]; len(dbs) != 1 || !dbs[0].closed.Load() {
			t.Errorf("%s: %d handles, want one, closed by router Close", name, len(dbs))
		}
		if got := r.Metrics(name).Closes.Load(); got != 1 {
			t.Errorf("%s closes = %d after Close, want 1", name, got)
		}
	}
}
