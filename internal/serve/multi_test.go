package serve

// multi_test.go exercises the multi-tenant server against fake tenant
// databases: per-city coalescing keys never share flights across cities,
// lazy open and LRU close flow through the serving layer, unknown cities are
// 404 before admission, and the /tenants and rollup /obs shapes are pinned
// byte-for-byte like the single-database goldens.

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ptldb"
	"ptldb/internal/tenant"
)

// fakeFleet builds a tenant router whose Open hook hands out fakeStores,
// recording every handle per city.
type fakeFleet struct {
	mu    sync.Mutex
	block chan struct{} // when non-nil, installed on every fake
	byDir map[string][]*fakeStore
}

func newFakeFleet(block chan struct{}) *fakeFleet {
	return &fakeFleet{block: block, byDir: map[string][]*fakeStore{}}
}

func (ff *fakeFleet) open(dir string, cfg ptldb.Config) (tenant.DB, error) {
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

func fakeRouter(t *testing.T, ff *fakeFleet, maxOpen int, cities ...string) *tenant.Router {
	t.Helper()
	dirs := map[string]string{}
	for _, c := range cities {
		dirs[c] = "/fake/" + c
	}
	r, err := tenant.NewFromDirs(dirs, tenant.Config{MaxOpenTenants: maxOpen, Open: ff.open})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestTenantCoalescingKeysAreCityScoped drives the identical query into two
// cities and twice into one: same-city requests share a flight, cross-city
// requests never do.
func TestTenantCoalescingKeysAreCityScoped(t *testing.T) {
	block := make(chan struct{})
	ff := newFakeFleet(block)
	router := fakeRouter(t, ff, 2, "austin", "berlin")
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
	// Executions ticks before the tenant open inside the flight finishes, so
	// wait for the fakes themselves: each city must reach its own store
	// exactly once while the third request joins austin's flight.
	waitFor(t, "one blocked execution per city, one coalesced join", func() bool {
		a, b := ff.latest("austin"), ff.latest("berlin")
		return a != nil && a.calls.Load() == 1 && b != nil && b.calls.Load() == 1 &&
			m.Coalesced.Load() == 1
	})
	if got := m.Executions.Load(); got != 2 {
		t.Errorf("executions = %d, want 2 (one per city)", got)
	}
	close(block)
	wg.Wait()
	if router.Metrics("austin").Requests.Load() != 2 || router.Metrics("berlin").Requests.Load() != 1 {
		t.Errorf("per-tenant requests = %d/%d, want 2/1",
			router.Metrics("austin").Requests.Load(), router.Metrics("berlin").Requests.Load())
	}
	if err := router.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTenantLifecycleOverHTTP walks lazy open and LRU close through the
// serving layer with a cap of one open tenant.
func TestTenantLifecycleOverHTTP(t *testing.T) {
	ff := newFakeFleet(nil)
	router := fakeRouter(t, ff, 1, "austin", "berlin")
	srv := NewMulti(router, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if code, body := get(t, ts.URL+"/t/austin/query/ea?from=1&to=2&t=28800"); code != http.StatusOK {
		t.Fatalf("austin query: status %d, body %s", code, body)
	}
	if router.OpenCount() != 1 || ff.latest("berlin") != nil {
		t.Fatalf("after one austin query: %d open, berlin opened %v", router.OpenCount(), ff.latest("berlin"))
	}
	if code, _ := get(t, ts.URL+"/t/berlin/query/ea?from=1&to=2&t=28800"); code != http.StatusOK {
		t.Fatalf("berlin query failed")
	}
	// The cap is 1: opening berlin closed idle austin.
	if got := ff.latest("austin").closeCalls.Load(); got != 1 {
		t.Errorf("austin close calls = %d, want 1 (LRU close under cap)", got)
	}
	if router.OpenCount() != 1 {
		t.Errorf("open count = %d, want 1", router.OpenCount())
	}
	// A later austin query reopens it transparently.
	if code, _ := get(t, ts.URL+"/t/austin/query/ea?from=1&to=2&t=28800"); code != http.StatusOK {
		t.Fatalf("austin reopen query failed")
	}
	m := router.Metrics("austin")
	if m.Opens.Load() != 2 || m.Closes.Load() != 1 {
		t.Errorf("austin opens/closes = %d/%d, want 2/1", m.Opens.Load(), m.Closes.Load())
	}
	// The rollup /obs sums the per-tenant counters into totals.
	code, body := get(t, ts.URL+"/obs")
	if code != http.StatusOK {
		t.Fatalf("/obs status %d", code)
	}
	for _, frag := range []string{
		"\"totals\"", "\"opens\": 3", "\"closes\": 2", "\"open_tenants\": 1",
	} {
		if !strings.Contains(body, frag) {
			t.Errorf("rollup /obs lacks %s:\n%s", frag, body)
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
	router := fakeRouter(t, ff, 2, "austin")
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
	if router.OpenCount() != 0 {
		t.Errorf("unknown tenant requests opened %d databases", router.OpenCount())
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
	router := fakeRouter(t, ff, 2, "austin", "berlin")
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
