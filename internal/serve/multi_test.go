package serve

// multi_test.go exercises the multi-tenant server against fake tenant
// databases: a query reaches its own city's store, a city opens once on its
// first request and stays open, a city that fails to open answers 500 while
// its neighbour answers 200, unknown cities are 404 before admission, and
// the /tenants and rollup /obs shapes are pinned byte-for-byte like the
// single-database goldens.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ptldb"
	"ptldb/internal/tenant"
)

// fakeFleet builds a tenant router whose Open hook hands out fakeStores,
// recording every handle per city. Opening the city named fail counts an
// attempt in failed and returns an error instead.
type fakeFleet struct {
	mu     sync.Mutex
	block  chan struct{} // when non-nil, installed on every fake
	byDir  map[string][]*fakeStore
	fail   string
	failed atomic.Int64
}

func newFakeFleet(block chan struct{}) *fakeFleet {
	return &fakeFleet{block: block, byDir: map[string][]*fakeStore{}}
}

func (ff *fakeFleet) open(dir string, cfg ptldb.Config) (tenant.DB, error) {
	if ff.fail != "" && dir == "/fake/"+ff.fail {
		ff.failed.Add(1)
		return nil, fmt.Errorf("fake %s: damaged image", ff.fail)
	}
	fs := &fakeStore{block: ff.block}
	ff.mu.Lock()
	ff.byDir[dir] = append(ff.byDir[dir], fs)
	ff.mu.Unlock()
	return fs, nil
}

// latest returns the most recently opened fake for a city, or nil.
func (ff *fakeFleet) latest(city string) *fakeStore {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	fakes := ff.byDir["/fake/"+city]
	if len(fakes) == 0 {
		return nil
	}
	return fakes[len(fakes)-1]
}

func fakeRouter(t *testing.T, ff *fakeFleet, cities ...string) *tenant.Router {
	t.Helper()
	dirs := map[string]string{}
	for _, c := range cities {
		dirs[c] = "/fake/" + c
	}
	r, err := tenant.NewFromDirs(dirs, tenant.Config{Open: ff.open})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestTenantQueriesAreCityScoped drives the identical query into two cities
// and twice into one, all parked in the store at once: each is its own
// execution on its own city's store, and per-tenant counters attribute it.
func TestTenantQueriesAreCityScoped(t *testing.T) {
	block := make(chan struct{})
	ff := newFakeFleet(block)
	router := fakeRouter(t, ff, "austin", "berlin")
	srv := NewMulti(router, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const q = "/query/ea?from=1&to=2&t=28800"
	var wg sync.WaitGroup
	for _, path := range []string{"/t/austin" + q, "/t/austin" + q, "/t/berlin" + q} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			if code, body := get(t, ts.URL+path); code != http.StatusOK {
				t.Errorf("GET %s: status %d, body %s", path, code, body)
			}
		}(path)
	}
	m := srv.Metrics()
	waitFor(t, "three executions parked, two on austin's store, one on berlin's", func() bool {
		a, b := ff.latest("austin"), ff.latest("berlin")
		return a != nil && a.calls.Load() == 2 && b != nil && b.calls.Load() == 1
	})
	if got := m.Executions.Load(); got != 3 {
		t.Errorf("executions = %d, want 3 (one per request)", got)
	}
	close(block)
	wg.Wait()
	if a, b := router.Metrics("austin").Requests.Load(), router.Metrics("berlin").Requests.Load(); a != 2 || b != 1 {
		t.Errorf("per-tenant requests = %d/%d, want 2/1", a, b)
	}
	if err := router.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTenantLifecycleOverHTTP sends one query to austin, berlin and austin
// again: each request reaches its own city's store, each city opens once on
// its first request and stays open, and the router's Close closes both.
func TestTenantLifecycleOverHTTP(t *testing.T) {
	ff := newFakeFleet(nil)
	router := fakeRouter(t, ff, "austin", "berlin")
	srv := NewMulti(router, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const q = "/query/ea?from=1&to=2&t=28800"
	if code, body := get(t, ts.URL+"/t/austin"+q); code != http.StatusOK {
		t.Fatalf("austin query: status %d, body %s", code, body)
	}
	if ff.latest("berlin") != nil {
		t.Fatal("an austin query opened berlin")
	}
	austin := ff.latest("austin")
	if code, _ := get(t, ts.URL+"/t/berlin"+q); code != http.StatusOK {
		t.Fatalf("berlin query failed")
	}
	if code, _ := get(t, ts.URL+"/t/austin"+q); code != http.StatusOK {
		t.Fatalf("second austin query failed")
	}
	// Austin kept its one handle: both of its queries reached it.
	if ff.latest("austin") != austin {
		t.Error("austin reopened")
	}
	if a, b := austin.calls.Load(), ff.latest("berlin").calls.Load(); a != 2 || b != 1 {
		t.Errorf("store calls austin/berlin = %d/%d, want 2/1", a, b)
	}
	for _, city := range []string{"austin", "berlin"} {
		m := router.Metrics(city)
		if m.Opens.Load() != 1 || m.Closes.Load() != 0 {
			t.Errorf("%s opens/closes = %d/%d, want 1/0", city, m.Opens.Load(), m.Closes.Load())
		}
	}
	if a, b := router.Metrics("austin").Requests.Load(), router.Metrics("berlin").Requests.Load(); a != 2 || b != 1 {
		t.Errorf("per-tenant requests = %d/%d, want 2/1", a, b)
	}
	// The rollup /obs sums the per-tenant counters into totals.
	code, body := get(t, ts.URL+"/obs")
	if code != http.StatusOK {
		t.Fatalf("/obs status %d", code)
	}
	for _, frag := range []string{
		"\"totals\"", "\"opens\": 2", "\"closes\": 0", "\"open_tenants\": 2",
	} {
		if !strings.Contains(body, frag) {
			t.Errorf("rollup /obs lacks %s:\n%s", frag, body)
		}
	}
	if err := router.Close(); err != nil {
		t.Fatal(err)
	}
	if a, b := austin.closeCalls.Load(), ff.latest("berlin").closeCalls.Load(); a != 1 || b != 1 {
		t.Errorf("close calls austin/berlin = %d/%d, want 1/1", a, b)
	}
}

// TestFailedTenantOpenOverHTTP: a city whose database fails to open answers
// 500 with the open's error to its concurrent first requests and to a later
// one, at the cost of one Open; its /tenants row reads closed, and the
// neighbouring city still answers.
func TestFailedTenantOpenOverHTTP(t *testing.T) {
	ff := newFakeFleet(nil)
	ff.fail = "austin"
	router := fakeRouter(t, ff, "austin", "berlin")
	srv := NewMulti(router, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const q = "/query/ea?from=1&to=2&t=28800"
	check := func(code int, body string) {
		if code != http.StatusInternalServerError || !strings.Contains(body, "damaged image") {
			t.Errorf("failing city answered %d %q, want 500 naming the open's error", code, body)
		}
	}
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			check(get(t, ts.URL+"/t/austin"+q))
		}()
	}
	wg.Wait()
	check(get(t, ts.URL+"/t/austin"+q))
	if got := ff.failed.Load(); got != 1 {
		t.Errorf("%d requests ran %d opens of the failing city, want 1", n+1, got)
	}
	if code, body := get(t, ts.URL+"/t/berlin"+q); code != http.StatusOK {
		t.Errorf("healthy city: status %d, body %s", code, body)
	}
	var list TenantListResponse
	if err := (&Client{BaseURL: ts.URL}).get("/tenants", &list); err != nil {
		t.Fatal(err)
	}
	for _, ti := range list.Tenants {
		if want := ti.City == "berlin"; ti.Open != want {
			t.Errorf("/tenants row %+v: open %v, want %v", ti, ti.Open, want)
		}
	}
	if err := router.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestUnknownTenant404 pins the pre-admission rejection of unknown cities
// across every per-city endpoint family.
func TestUnknownTenant404(t *testing.T) {
	ff := newFakeFleet(nil)
	router := fakeRouter(t, ff, "austin")
	srv := NewMulti(router, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, path := range []string{
		"/t/nope/query/ea?from=1&to=2&t=28800",
		"/t/nope/plan",
		"/t/nope/obs",
	} {
		code, body := get(t, ts.URL+path)
		if code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, code)
		}
		if !strings.Contains(body, "unknown tenant") {
			t.Errorf("GET %s: body %q lacks the unknown-tenant error", path, body)
		}
	}
	m := srv.Metrics()
	if m.BadRequests.Load() != 3 || m.Requests.Load() != 0 {
		t.Errorf("unknown tenants: bad_requests %d requests %d, want 3 and 0 (rejected before the pipeline)",
			m.BadRequests.Load(), m.Requests.Load())
	}
	if ff.latest("austin") != nil {
		t.Error("unknown tenant requests opened a database")
	}
}

const tenantsGolden = `{
  "tenants": [
    {
      "city": "austin",
      "open": false,
      "requests": 0,
      "opens": 0,
      "closes": 0,
      "resident_bytes": 0
    },
    {
      "city": "berlin",
      "open": false,
      "requests": 0,
      "opens": 0,
      "closes": 0,
      "resident_bytes": 0
    }
  ]
}
`

const rollupObsGolden = `{
  "serve": {
    "requests": 0,
    "executions": 0,
    "coalesced": 0,
    "rejected": 0,
    "timeouts": 0,
    "bad_requests": 0,
    "errors": 0,
    "in_flight": 0,
    "latency": {
      "count": 0,
      "mean_us": 0
    },
    "rejected_latency": {
      "count": 0,
      "mean_us": 0
    }
  },
  "tenants": {
    "austin": {
      "requests": 0,
      "opens": 0,
      "closes": 0,
      "open": false,
      "resident_bytes": 0,
      "latency": {
        "count": 0,
        "mean_us": 0
      }
    },
    "berlin": {
      "requests": 0,
      "opens": 0,
      "closes": 0,
      "open": false,
      "resident_bytes": 0,
      "latency": {
        "count": 0,
        "mean_us": 0
      }
    }
  },
  "totals": {
    "requests": 0,
    "opens": 0,
    "closes": 0,
    "open_tenants": 0,
    "resident_bytes": 0
  }
}
`

const tenantObsGolden = `{
  "pool": {
    "hits": 0,
    "misses": 0,
    "evictions": 0,
    "rand_reads": 0,
    "seq_reads": 0
  },
  "vcache": {
    "hits": 0,
    "misses": 0,
    "evictions": 0,
    "materializations": 0,
    "declined": 0,
    "resident_bytes": 0,
    "materialize": {
      "count": 0,
      "mean_us": 0
    }
  },
  "exec": {
    "fused_runs": 0,
    "fused_bailouts": 0,
    "general_runs": 0,
    "rows_scanned": 0,
    "tuples_merged": 0
  },
  "segment": {
    "hits": 0,
    "columns_decoded": 0,
    "bytes_read": 0
  },
  "query": null,
  "tenant": {
    "requests": 0,
    "opens": 1,
    "closes": 0,
    "open": true,
    "resident_bytes": 0,
    "latency": {
      "count": 0,
      "mean_us": 0
    }
  }
}
`

// TestMultiGoldens pins the multi-tenant wire shapes: the rollup /obs on a
// cold router (fetched first — system requests are metered only after their
// snapshot is taken, so every field is deterministically zero), the /tenants
// listing, then one city's /obs (which lazily opens it).
func TestMultiGoldens(t *testing.T) {
	ff := newFakeFleet(nil)
	router := fakeRouter(t, ff, "austin", "berlin")
	srv := NewMulti(router, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, body := get(t, ts.URL+"/obs")
	if code != http.StatusOK || body != rollupObsGolden {
		t.Errorf("rollup /obs drifted (status %d):\n got: %q\nwant: %q", code, body, rollupObsGolden)
	}
	code, body = get(t, ts.URL+"/tenants")
	if code != http.StatusOK || body != tenantsGolden {
		t.Errorf("/tenants drifted (status %d):\n got: %q\nwant: %q", code, body, tenantsGolden)
	}
	code, body = get(t, ts.URL+"/t/austin/obs")
	if code != http.StatusOK || body != tenantObsGolden {
		t.Errorf("/t/austin/obs drifted (status %d):\n got: %q\nwant: %q", code, body, tenantObsGolden)
	}
	if err := router.Close(); err != nil {
		t.Fatal(err)
	}
}
