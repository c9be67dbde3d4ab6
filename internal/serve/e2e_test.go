package serve

// e2e_test.go drives the full stack — serve.Client over a real TCP listener
// into a Server fronting a real database — and requires every answer to be
// identical to a direct DB call: the wire layer must be invisible. It also
// checks the typed error classification end to end (an out-of-range stop id
// surfaces as HTTP 400 through the client), and the horizon rule over the
// wire: times past 24:00:00 and before 0 answer what CSA answers.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"ptldb"
	"ptldb/internal/csa"
	"ptldb/internal/gtfs"
	"ptldb/internal/obs"
	"ptldb/internal/timetable"
)

// serveNetwork builds tt into a new database with the target set "poi" of
// targets for k up to kmax, serves it on a loopback listener for the rest of
// the test, and returns the database and a client of the server.
func serveNetwork(t *testing.T, tt *ptldb.Network, targets []ptldb.StopID, kmax int) (*ptldb.DB, *Client) {
	t.Helper()
	dir := t.TempDir()
	db, err := ptldb.Create(dir, tt, ptldb.Config{Device: "ram"})
	if err == nil {
		err = db.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := ptldb.AddTargetSet(dir, "base", "poi", targets, kmax, ptldb.Config{Device: "ram"}); err != nil {
		t.Fatal(err)
	}
	if db, err = ptldb.Open(dir, ptldb.Config{Device: "ram"}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })

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
	return db, c
}

func TestClientMatchesDirectDB(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a database")
	}
	tt, err := ptldb.GenerateCity("Salt Lake City", 0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	db, c := serveNetwork(t, tt, []ptldb.StopID{1, 3, 5, 7, 11, 13}, 4)

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

	// The horizon (DESIGN.md §7.4): on the network whose last trip crosses
	// midnight, at the times at and past either end of its timetable that
	// core's horizon test queries, spelled as HH:MM:SS past 24 h or as
	// negative seconds, every answer over the wire is the direct call's and
	// CSA's.
	htt := timetable.HorizonExample()
	htargets := []ptldb.StopID{2, 4, 5}
	hdb, hc := serveNetwork(t, htt, htargets, len(htargets))
	spell := func(t ptldb.Time) string {
		if t < 0 {
			return strconv.Itoa(int(t))
		}
		return gtfs.FormatTime(t)
	}
	last := htt.MaxTime() / 3600 * 3600
	for _, tq := range []ptldb.Time{-5, 0, htt.MinTime(), htt.MaxTime(), htt.MaxTime() + 1, last, last + 3599, 200 * 3600, math.MaxInt32} {
		at := spell(tq)
		point := func(path string, direct ptldb.Time, found bool, err error, oracle, none ptldb.Time) {
			t.Helper()
			var pr PointResponse
			if gerr := hc.Get(path, &pr); gerr != nil || err != nil {
				t.Fatalf("%s: over the wire %v, direct %v", path, gerr, err)
			}
			if pr.Found != found || ptldb.Time(pr.Value) != direct || found != (oracle != none) || (found && direct != oracle) {
				t.Errorf("%s = (%d, %v) over the wire, (%d, %v) direct; CSA %d", path, pr.Value, pr.Found, direct, found, oracle)
			}
		}
		n := ptldb.StopID(htt.NumStops())
		for s := ptldb.StopID(0); s < n; s++ {
			for g := ptldb.StopID(0); g < n; g++ {
				if s == g {
					continue // the dummy-tuple answer, not CSA's
				}
				v, ok, err := hdb.EarliestArrival(s, g, tq)
				point(fmt.Sprintf("/query/ea?from=%d&to=%d&t=%s", s, g, at), v, ok, err, csa.EarliestArrival(htt, s, g, tq), timetable.Infinity)
				v, ok, err = hdb.LatestDeparture(s, g, tq)
				point(fmt.Sprintf("/query/ld?from=%d&to=%d&t=%s", s, g, at), v, ok, err, csa.LatestDeparture(htt, s, g, tq), timetable.NegInfinity)
				v, ok, err = hdb.ShortestDuration(s, g, -5, tq)
				point(fmt.Sprintf("/query/sd?from=%d&to=%d&start=-5&end=%s", s, g, at), v, ok, err, csa.ShortestDuration(htt, s, g, -5, tq), timetable.Infinity)
			}
		}
		results := func(path string, direct []ptldb.Result, err error, oracle []csa.Neighbor) {
			t.Helper()
			var rr ResultsResponse
			if gerr := hc.Get(path, &rr); gerr != nil || err != nil {
				t.Fatalf("%s: over the wire %v, direct %v", path, gerr, err)
			}
			wire, want := make([]ptldb.Result, len(rr.Results)), make([]ptldb.Result, len(oracle))
			for i, r := range rr.Results {
				wire[i] = ptldb.Result{Stop: ptldb.StopID(r.Stop), When: ptldb.Time(r.When)}
			}
			for i, r := range oracle {
				want[i] = ptldb.Result{Stop: r.Stop, When: r.When}
			}
			if !slices.Equal(wire, direct) || !slices.Equal(direct, want) {
				t.Errorf("%s = %v over the wire, %v direct; CSA %v", path, wire, direct, want)
			}
		}
		k := len(htargets)
		for _, q := range []ptldb.StopID{0, 1, 3} { // a target answers by its dummy tuples
			got, err := hdb.EAKNN("poi", q, tq, k)
			results(fmt.Sprintf("/query/eaknn?set=poi&from=%d&t=%s&k=%d", q, at, k), got, err, csa.EarliestArrivalKNN(htt, q, htargets, tq, k))
			got, err = hdb.LDKNN("poi", q, tq, k)
			results(fmt.Sprintf("/query/ldknn?set=poi&from=%d&t=%s&k=%d", q, at, k), got, err, csa.LatestDepartureKNN(htt, q, htargets, tq, k))
			got, err = hdb.EAOTM("poi", q, tq)
			results(fmt.Sprintf("/query/eaotm?set=poi&from=%d&t=%s", q, at), got, err, csa.EarliestArrivalKNN(htt, q, htargets, tq, k))
			got, err = hdb.LDOTM("poi", q, tq)
			results(fmt.Sprintf("/query/ldotm?set=poi&from=%d&t=%s", q, at), got, err, csa.LatestDepartureKNN(htt, q, htargets, tq, k))
		}
	}
}
