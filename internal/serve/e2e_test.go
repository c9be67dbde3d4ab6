package serve

// e2e_test.go drives the full stack — serve.Client over a real TCP listener
// into a Server fronting a real database — and requires every answer to be
// identical to a direct DB call: the wire layer must be invisible. It also
// checks the typed error classification end to end (an out-of-range stop id
// surfaces as HTTP 400 through the client).

import (
	"context"
	"errors"
	"net"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"ptldb"
	"ptldb/internal/obs"
)

func TestClientMatchesDirectDB(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a database")
	}
	tt, err := ptldb.GenerateCity("Salt Lake City", 0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	db, err := ptldb.Create(t.TempDir(), tt, ptldb.Config{Device: "ram"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	targets := []ptldb.StopID{1, 3, 5, 7, 11, 13}
	if err := db.AddTargetSet("poi", targets, 4); err != nil {
		t.Fatal(err)
	}

	srv := New(db, Options{})
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
	c := &Client{BaseURL: "http://" + l.Addr().String()}
	if err := c.Health(); err != nil {
		t.Fatal(err)
	}

	n := ptldb.StopID(tt.NumStops())
	t0, t1 := tt.MinTime(), tt.MinTime()+tt.Span()
	pairs := []struct{ s, g ptldb.StopID }{{0, n - 1}, {1, n / 2}, {n / 3, 2}, {5, 5}}
	for _, p := range pairs {
		wantV, wantOK, wantErr := db.EarliestArrival(p.s, p.g, t0)
		gotV, gotOK, gotErr := c.EarliestArrival(p.s, p.g, t0)
		if wantErr != nil || gotErr != nil {
			t.Fatalf("EA(%d,%d): direct err %v, client err %v", p.s, p.g, wantErr, gotErr)
		}
		if gotV != wantV || gotOK != wantOK {
			t.Errorf("EA(%d,%d) = (%v,%v) over the wire, (%v,%v) direct", p.s, p.g, gotV, gotOK, wantV, wantOK)
		}
		wantV, wantOK, _ = db.LatestDeparture(p.s, p.g, t1)
		gotV, gotOK, gotErr = c.LatestDeparture(p.s, p.g, t1)
		if gotErr != nil || gotV != wantV || gotOK != wantOK {
			t.Errorf("LD(%d,%d) = (%v,%v,%v) over the wire, (%v,%v) direct", p.s, p.g, gotV, gotOK, gotErr, wantV, wantOK)
		}
		wantV, wantOK, _ = db.ShortestDuration(p.s, p.g, t0, t1)
		gotV, gotOK, gotErr = c.ShortestDuration(p.s, p.g, t0, t1)
		if gotErr != nil || gotV != wantV || gotOK != wantOK {
			t.Errorf("SD(%d,%d) = (%v,%v,%v) over the wire, (%v,%v) direct", p.s, p.g, gotV, gotOK, gotErr, wantV, wantOK)
		}
	}

	for _, q := range []ptldb.StopID{0, 2, n - 1} {
		want, err := db.EAKNN("poi", q, t0, 3)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.EAKNN("poi", q, t0, 3)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("EAKNN(%d) = %v (%v) over the wire, %v direct", q, got, err, want)
		}
		want, err = db.LDKNN("poi", q, t1, 2)
		if err != nil {
			t.Fatal(err)
		}
		got, err = c.LDKNN("poi", q, t1, 2)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("LDKNN(%d) = %v (%v) over the wire, %v direct", q, got, err, want)
		}
		want, err = db.EAOTM("poi", q, t0)
		if err != nil {
			t.Fatal(err)
		}
		got, err = c.EAOTM("poi", q, t0)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("EAOTM(%d) = %v (%v) over the wire, %v direct", q, got, err, want)
		}
		want, err = db.LDOTM("poi", q, t1)
		if err != nil {
			t.Fatal(err)
		}
		got, err = c.LDOTM("poi", q, t1)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("LDOTM(%d) = %v (%v) over the wire, %v direct", q, got, err, want)
		}
	}

	names, err := c.ExplainNames()
	if err != nil || !reflect.DeepEqual(names, db.ExplainNames()) {
		t.Errorf("ExplainNames = %v (%v) over the wire, %v direct", names, err, db.ExplainNames())
	}
	for _, name := range db.ExplainNames() {
		want, err := db.ExplainPrepared(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.ExplainPrepared(name)
		if err != nil || got != want {
			t.Errorf("ExplainPrepared(%q) differs over the wire (%v)", name, err)
		}
	}

	// The store's typed invalid-argument errors surface as HTTP 400.
	_, _, err = c.EarliestArrival(n+100, 0, t0)
	var httpErr *HTTPError
	if !errors.As(err, &httpErr) || httpErr.Status != http.StatusBadRequest {
		t.Errorf("EA with out-of-range stop: err %v, want HTTPError 400", err)
	} else if msg := httpErr.Error(); !strings.Contains(msg, httpErr.Msg) || !strings.Contains(msg, "HTTP 400") {
		t.Errorf("HTTPError text %q lacks the server's message or the status", msg)
	}
	if _, err := c.EAKNN("no-such-set", 0, t0, 2); !errors.As(err, &httpErr) || httpErr.Status != http.StatusBadRequest {
		t.Errorf("EAKNN with unknown set: err %v, want HTTPError 400", err)
	}

	// /obs over the wire carries both the store registry (queries ran above)
	// and the serving counters.
	snap, err := c.Obs()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Serve == nil || snap.Serve.Requests == 0 {
		t.Errorf("Obs().Serve = %+v, want populated serving counters", snap.Serve)
	}
	if len(snap.Query) == 0 {
		t.Error("Obs().Query empty after queries ran")
	}
	// The untyped escape hatch reads the same endpoint.
	var raw obs.Snapshot
	if err := c.Get("/obs", &raw); err != nil || raw.Serve == nil || raw.Serve.Requests <= snap.Serve.Requests {
		t.Errorf("Get(/obs) = %+v, %v; want the snapshot one request on", raw.Serve, err)
	}
}
