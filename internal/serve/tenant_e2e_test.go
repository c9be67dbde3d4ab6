package serve

// tenant_e2e_test.go is the multi-tenant acceptance test: two real city
// stores built into subdirectories of one parent, served together by a
// NewMulti server over tenant.New, must answer byte-identically to the same
// stores behind their own single-database servers. The wire layer and the
// tenancy layer both have to be invisible for that to hold.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ptldb"
	"ptldb/internal/csa"
	"ptldb/internal/sqldb"
	"ptldb/internal/tenant"
	"ptldb/internal/timetable"
)

// buildCity generates a city store under dir and adds the shared target set,
// for servers to open.
func buildCity(t *testing.T, dir, city string, seed int64) *ptldb.Network {
	t.Helper()
	tt, err := ptldb.GenerateCity(city, 0.02, seed)
	if err != nil {
		t.Fatal(err)
	}
	db, err := ptldb.Create(dir, tt, ptldb.Config{Device: "ram"})
	if err == nil {
		err = db.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := ptldb.AddTargetSet(dir, "base", "poi", []ptldb.StopID{1, 3, 5, 7, 11, 13}, 4, ptldb.Config{Device: "ram"}); err != nil {
		t.Fatal(err)
	}
	return tt
}

// startServer serves handler on a loopback listener and returns its base URL.
func startServer(t *testing.T, srv *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
		}
	})
	return "http://" + l.Addr().String()
}

func TestMultiTenantMatchesSingleServers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two databases")
	}
	parent := t.TempDir()
	networks := map[string]*ptldb.Network{
		"austin": buildCity(t, filepath.Join(parent, "austin"), "Austin", 7),
		"slc":    buildCity(t, filepath.Join(parent, "slc"), "Salt Lake City", 42),
	}

	// One single-database server per city: the reference answers.
	singleURL := map[string]string{}
	for name := range networks {
		db, err := ptldb.Open(filepath.Join(parent, name), ptldb.Config{Device: "ram"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		singleURL[name] = startServer(t, New(db, Options{}))
	}

	// The system under test: both cities behind one process.
	router, err := tenant.New(parent, tenant.Config{
		MaxOpenTenants: 2,
		Base:           ptldb.Config{Device: "ram"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := router.Close(); err != nil {
			t.Errorf("router close: %v", err)
		}
	})
	multiURL := startServer(t, NewMulti(router, Options{}))

	requests := map[string]int{}
	for name, tt := range networks {
		n := ptldb.StopID(tt.NumStops())
		t0, t1 := tt.MinTime(), tt.MinTime()+tt.Span()
		paths := []string{
			V2VPath("ea", 1, n-1, t0),
			V2VPath("ea", 5, 5, t0), // unreachable pair: no-journey shape
			V2VPath("ld", 0, n/2, t1),
			SDPath(n/3, 2, t0, t1),
			KNNPath("eaknn", "poi", 0, t0, 3),
			KNNPath("ldknn", "poi", 2, t1, 2),
			OTMPath("eaotm", "poi", n-1, t0),
			OTMPath("ldotm", "poi", 1, t1),
			V2VPath("ea", n+100, 0, t0),               // out-of-range stop: HTTP 400 shape
			KNNPath("eaknn", "no-such-set", 0, t0, 2), // unknown set: HTTP 400 shape
		}
		for _, p := range paths {
			wantCode, wantBody := get(t, singleURL[name]+p)
			gotCode, gotBody := get(t, multiURL+"/t/"+name+p)
			if gotCode != wantCode || gotBody != wantBody {
				t.Errorf("%s %s: multi (%d, %q) != single (%d, %q)",
					name, p, gotCode, gotBody, wantCode, wantBody)
			}
			requests[name]++
		}
		for _, p := range []string{"/plan", "/plan?name=" + findPlanName(t, singleURL[name])} {
			wantCode, wantBody := get(t, singleURL[name]+p)
			gotCode, gotBody := get(t, multiURL+"/t/"+name+p)
			if gotCode != wantCode || gotBody != wantBody {
				t.Errorf("%s %s: multi (%d, %q) != single (%d, %q)",
					name, p, gotCode, gotBody, wantCode, wantBody)
			}
		}
	}

	// The typed client reaches a tenant through the same prefix.
	c := &Client{BaseURL: multiURL, Tenant: "slc"}
	tt := networks["slc"]
	gotV, gotOK, err := c.EarliestArrival(1, 2, tt.MinTime())
	if err != nil {
		t.Fatalf("client EA via tenant prefix: %v", err)
	}
	requests["slc"]++
	code, body := get(t, singleURL["slc"]+V2VPath("ea", 1, 2, tt.MinTime()))
	if code != http.StatusOK {
		t.Fatalf("single slc EA: %d %s", code, body)
	}
	if want := fmt.Sprintf("{\"found\":%v,\"value\":%d,", gotOK, gotV); len(body) < len(want) || body[:len(want)] != want {
		t.Errorf("client EA (%v,%v) disagrees with single server body %q", gotV, gotOK, body)
	}

	// Both tenants are open and the rollup totals are exactly the per-tenant
	// sums, which in turn are exactly the queries this test issued.
	var list TenantListResponse
	if err := (&Client{BaseURL: multiURL}).get("/tenants", &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Tenants) != 2 {
		t.Fatalf("/tenants: %+v, want austin and slc", list.Tenants)
	}
	for _, ti := range list.Tenants {
		if !ti.Open {
			t.Errorf("tenant %s not open after traffic", ti.City)
		}
		if ti.Requests != uint64(requests[ti.City]) {
			t.Errorf("tenant %s requests = %d, want %d", ti.City, ti.Requests, requests[ti.City])
		}
	}
	var roll MultiObsResponse
	if err := (&Client{BaseURL: multiURL}).get("/obs", &roll); err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for name, ts := range roll.Tenants {
		sum += ts.Requests
		if ts.Requests != uint64(requests[name]) {
			t.Errorf("rollup tenant %s requests = %d, want %d", name, ts.Requests, requests[name])
		}
	}
	if roll.Totals.Requests != sum || roll.Totals.OpenTenants != 2 {
		t.Errorf("rollup totals %+v, want requests %d and 2 open tenants", roll.Totals, sum)
	}
}

// findPlanName returns the first prepared-plan name a server advertises.
func findPlanName(t *testing.T, base string) string {
	t.Helper()
	var pl PlanListResponse
	if err := (&Client{BaseURL: base}).get("/plan", &pl); err != nil {
		t.Fatal(err)
	}
	if len(pl.Names) == 0 {
		t.Fatal("server advertises no prepared plans")
	}
	return pl.Names[0]
}

// TestCorruptTenantFailsClosed: a city whose image is damaged cannot be
// opened, so every request to it — first try and retry alike, the failed open
// being remembered — answers 5xx naming the cause, while the neighbouring city
// behind the same server keeps answering 200 with the CSA oracle's values.
func TestCorruptTenantFailsClosed(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two databases")
	}
	parent := t.TempDir()
	buildCity(t, filepath.Join(parent, "austin"), "Austin", 7)
	tt := buildCity(t, filepath.Join(parent, "slc"), "Salt Lake City", 42)

	seg := filepath.Join(parent, "austin", sqldb.ImageName)
	image, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	image[8192+100] ^= 0x01 // one bit in the data region of the first segment
	if err := os.WriteFile(seg, image, 0o644); err != nil {
		t.Fatal(err)
	}

	router, err := tenant.New(parent, tenant.Config{Base: ptldb.Config{Device: "ram"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := router.Close(); err != nil {
			t.Errorf("router close: %v", err)
		}
	})
	url := startServer(t, NewMulti(router, Options{}))

	healthy := &Client{BaseURL: url, Tenant: "slc"}
	n := ptldb.StopID(tt.NumStops())
	for round := 0; round < 3; round++ {
		for _, p := range []string{V2VPath("ea", 1, 2, tt.MinTime()), KNNPath("eaknn", "poi", 0, tt.MinTime(), 2)} {
			code, body := get(t, url+"/t/austin"+p)
			if code < 500 {
				t.Errorf("round %d: corrupt tenant answered %d %q to %s, want 5xx", round, code, body, p)
			}
			if !strings.Contains(body, "corrupt segment") {
				t.Errorf("round %d: 5xx body does not name the cause: %q", round, body)
			}
		}
		for i := 0; i < 8; i++ {
			s, g := ptldb.StopID(i+round)%n, ptldb.StopID(7*i+3)%n
			if s == g {
				continue
			}
			dep := tt.MinTime() + ptldb.Time(i)*600
			got, ok, err := healthy.EarliestArrival(s, g, dep)
			if err != nil {
				t.Fatalf("healthy tenant: %v", err)
			}
			want := csa.EarliestArrival(tt, s, g, dep)
			if ok != (want != timetable.Infinity) || (ok && got != want) {
				t.Errorf("healthy tenant EA(%d,%d,%d) = %d,%v; oracle says %d", s, g, dep, got, ok, want)
			}
		}
	}
}
