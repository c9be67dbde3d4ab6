package serve

// serve_test.go exercises the serving layer's lifecycle contracts against a
// controllable fake store: identical requests are separate executions, the
// admission cap answers 503 without deadlocking, an expired deadline answers
// 504 while the abandoned execution keeps its slot until the store returns,
// graceful drain waits for in-flight requests, and the whole pipeline is
// race-clean under concurrent clients (scripts/check.sh runs this package
// with -race).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ptldb/internal/core"
	"ptldb/internal/obs"
	"ptldb/internal/timetable"
)

// fakeStore answers every query instantly with synthetic values unless block
// is set, in which case query executions park until the channel is closed.
// eaErr, when set, is returned by EarliestArrival to drive the error-mapping
// tests; snapBlock parks Snapshot the same way block parks queries (the
// system-endpoint deadline tests). Close makes the fake double as a
// tenant.DB for the multi-tenant tests.
type fakeStore struct {
	calls      atomic.Int64
	closeCalls atomic.Int64
	block      chan struct{}
	snapBlock  chan struct{}
	eaErr      error
}

func (f *fakeStore) enter() {
	f.calls.Add(1)
	if f.block != nil {
		<-f.block
	}
}

func (f *fakeStore) EarliestArrival(s, g timetable.StopID, t timetable.Time) (timetable.Time, bool, error) {
	f.enter()
	if f.eaErr != nil {
		return 0, false, f.eaErr
	}
	if s == g {
		return 0, false, nil // unreachable pair: the no-journey shape
	}
	return t + 60, true, nil
}

func (f *fakeStore) LatestDeparture(s, g timetable.StopID, t timetable.Time) (timetable.Time, bool, error) {
	f.enter()
	return t - 60, true, nil
}

func (f *fakeStore) ShortestDuration(s, g timetable.StopID, t, tEnd timetable.Time) (timetable.Time, bool, error) {
	f.enter()
	return 300, true, nil
}

func (f *fakeStore) knn(q timetable.StopID, t timetable.Time, k int) []core.Result {
	out := make([]core.Result, k)
	for i := range out {
		out[i] = core.Result{Stop: q + timetable.StopID(i+1), When: t + timetable.Time(60*(i+1))}
	}
	return out
}

func (f *fakeStore) EAKNN(set string, q timetable.StopID, t timetable.Time, k int) ([]core.Result, error) {
	f.enter()
	return f.knn(q, t, k), nil
}

func (f *fakeStore) LDKNN(set string, q timetable.StopID, t timetable.Time, k int) ([]core.Result, error) {
	f.enter()
	return f.knn(q, t, k), nil
}

func (f *fakeStore) EAOTM(set string, q timetable.StopID, t timetable.Time) ([]core.Result, error) {
	f.enter()
	return f.knn(q, t, 2), nil
}

func (f *fakeStore) LDOTM(set string, q timetable.StopID, t timetable.Time) ([]core.Result, error) {
	f.enter()
	return f.knn(q, t, 2), nil
}

func (f *fakeStore) ExplainPrepared(name string) (string, error) {
	if name != "v2v-ea" {
		return "", fmt.Errorf("fake: no prepared query %q: %w", name, core.ErrInvalidArgument)
	}
	return "FakePlan v2v-ea\n", nil
}

func (f *fakeStore) ExplainNames() []string { return []string{"v2v-ea"} }

func (f *fakeStore) Snapshot() obs.Snapshot {
	if f.snapBlock != nil {
		<-f.snapBlock
	}
	// An empty vector-cache section, so the /obs goldens pin its shape too.
	return obs.Snapshot{VCache: &obs.VCacheSnapshot{}}
}

func (f *fakeStore) Close() error {
	f.closeCalls.Add(1)
	return nil
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestIdenticalRequestsAreSeparateExecutions: N concurrent identical
// requests are N store executions, each holding its own admission slot, and
// all N get the same answer.
func TestIdenticalRequestsAreSeparateExecutions(t *testing.T) {
	const n = 8
	fs := &fakeStore{block: make(chan struct{})}
	srv := New(fs, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var wg sync.WaitGroup
	bodies := make([]string, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], bodies[i] = get(t, ts.URL+"/query/ea?from=1&to=99&t=28800")
		}(i)
	}
	m := srv.Metrics()
	waitFor(t, "every request parked in the store", func() bool {
		return fs.calls.Load() == n && m.Executions.Load() == n && m.InFlight.Load() == n
	})
	close(fs.block)
	wg.Wait()
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Errorf("request %d: status %d, body %s", i, codes[i], bodies[i])
		}
		if bodies[i] != bodies[0] {
			t.Errorf("request %d body %q differs from %q", i, bodies[i], bodies[0])
		}
	}
	if got := fs.calls.Load(); got != n {
		t.Errorf("store saw %d calls total, want %d", got, n)
	}
	if got := m.Coalesced.Load(); got != 0 {
		t.Errorf("coalesced counter %d, want 0", got)
	}
}

func TestSaturatedServerAnswers503(t *testing.T) {
	fs := &fakeStore{block: make(chan struct{})}
	srv := New(fs, Options{MaxInFlight: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Distinct keys, so every request needs its own admission slot.
	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			code, _ := get(t, fmt.Sprintf("%s/query/ea?from=%d&to=2&t=28800", ts.URL, i+3))
			results <- code
		}(i)
	}
	waitFor(t, "both slots occupied", func() bool { return fs.calls.Load() == 2 })

	// The cap is reached: the next request must be rejected promptly with a
	// Retry-After hint, not queued behind the parked executions.
	resp, err := http.Get(ts.URL + "/query/ea?from=9&to=9&t=28800")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d at cap, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After %q, want %q", got, "1")
	}
	if srv.Metrics().Rejected.Load() != 1 {
		t.Errorf("rejected counter %d, want 1", srv.Metrics().Rejected.Load())
	}

	close(fs.block)
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Errorf("parked request finished with %d, want 200", code)
		}
	}
}

// TestAnsweredRequestFreesItsSlot: the admission slot is back before the
// answer is out, so one client issuing requests back to back never meets its
// own previous request at the cap.
func TestAnsweredRequestFreesItsSlot(t *testing.T) {
	srv := New(&fakeStore{}, Options{MaxInFlight: 1})
	for i := 0; i < 200_000; i++ {
		_, code, err := srv.do(context.Background(), func() (any, error) { return i, nil })
		if code != http.StatusOK || err != nil {
			t.Fatalf("request %d: status %d, %v", i, code, err)
		}
	}
	if m := srv.Metrics(); m.Rejected.Load() != 0 || m.InFlight.Load() != 0 {
		t.Errorf("%d rejected, in-flight gauge %d; want 0 and 0", m.Rejected.Load(), m.InFlight.Load())
	}
}

// TestDeadlineExpiryAnswers504: an expired deadline answers 504 while the
// abandoned execution keeps its admission slot until the store returns, so a
// retry against a parked store meets the cap (503) instead of piling up a
// second execution; once the store returns, a retry is a fresh execution.
func TestDeadlineExpiryAnswers504(t *testing.T) {
	fs := &fakeStore{block: make(chan struct{})}
	srv := New(fs, Options{MaxInFlight: 1, Timeout: 30 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const path = "/query/ea?from=1&to=2&t=28800"
	code, body := get(t, ts.URL+path)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d after deadline, want 504 (body %s)", code, body)
	}
	m := srv.Metrics()
	if m.Timeouts.Load() != 1 {
		t.Errorf("timeouts counter %d, want 1", m.Timeouts.Load())
	}
	if m.InFlight.Load() != 1 {
		t.Errorf("in-flight gauge %d with abandoned execution running, want 1", m.InFlight.Load())
	}
	if code, body := get(t, ts.URL+path); code != http.StatusServiceUnavailable {
		t.Errorf("retry with the abandoned execution parked: status %d, body %s, want 503", code, body)
	}
	close(fs.block)
	waitFor(t, "abandoned execution returned its slot", func() bool { return m.InFlight.Load() == 0 })
	if code, body := get(t, ts.URL+path); code != http.StatusOK {
		t.Errorf("retry after release: status %d, body %s, want 200", code, body)
	}
	if got := fs.calls.Load(); got != 2 {
		t.Errorf("store saw %d calls, want 2 (the abandoned execution and the retry)", got)
	}
}

func TestGracefulDrainWaitsForInFlight(t *testing.T) {
	fs := &fakeStore{block: make(chan struct{})}
	srv := New(fs, Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	base := "http://" + l.Addr().String()

	reqDone := make(chan int, 1)
	go func() {
		code, _ := get(t, base+"/query/ea?from=1&to=2&t=28800")
		reqDone <- code
	}()
	waitFor(t, "request in flight", func() bool { return fs.calls.Load() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(ctx) }()
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) with a request still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(fs.block)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
	if code := <-reqDone; code != http.StatusOK {
		t.Errorf("drained request finished with %d, want 200", code)
	}
}

// TestShutdownWaitsForDetachedExecutions pins the drain contract past the
// handlers: an execution whose request already answered 504 still runs
// against the store, so Shutdown must not return (and the caller must not
// close the store) before it finishes — and must give up with the context's
// error when it does not finish in time.
func TestShutdownWaitsForDetachedExecutions(t *testing.T) {
	for _, path := range []string{"/query/ea?from=1&to=2&t=28800", "/obs"} {
		t.Run(path, func(t *testing.T) {
			release := make(chan struct{})
			fs := &fakeStore{block: release, snapBlock: release}
			srv := New(fs, Options{Timeout: 30 * time.Millisecond})
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			serveErr := make(chan error, 1)
			go func() { serveErr <- srv.Serve(l) }()

			if code, body := get(t, "http://"+l.Addr().String()+path); code != http.StatusGatewayTimeout {
				t.Fatalf("status %d with the store parked, want 504 (body %s)", code, body)
			}

			short, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			if err := srv.Shutdown(short); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("Shutdown with the execution still parked: %v, want deadline exceeded", err)
			}

			long, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			shutdownDone := make(chan error, 1)
			go func() { shutdownDone <- srv.Shutdown(long) }()
			select {
			case err := <-shutdownDone:
				t.Fatalf("Shutdown returned (%v) with a detached execution still in the store", err)
			case <-time.After(50 * time.Millisecond):
			}

			close(release)
			if err := <-shutdownDone; err != nil {
				t.Fatalf("Shutdown after release: %v", err)
			}
			if got := srv.Metrics().InFlight.Load(); got != 0 {
				t.Errorf("in-flight gauge %d after a clean Shutdown, want 0", got)
			}
			if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
				t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
			}
		})
	}
}

func TestConcurrentClientsSmoke(t *testing.T) {
	fs := &fakeStore{}
	srv := New(fs, Options{MaxInFlight: 128})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	paths := []string{
		"/query/ea?from=1&to=2&t=28800",
		"/query/ld?from=2&to=1&t=36000",
		"/query/sd?from=1&to=3&start=28800&end=36000",
		"/query/eaknn?set=poi&from=1&t=28800&k=3",
		"/query/ldknn?set=poi&from=1&t=36000&k=2",
		"/query/eaotm?set=poi&from=4&t=28800",
		"/query/ldotm?set=poi&from=4&t=36000",
		"/plan?name=v2v-ea",
		"/healthz",
		"/query/ea?from=x&to=2&t=28800", // 400, parse
	}
	const clients, perClient = 8, 40
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				path := paths[(c+i)%len(paths)]
				want := http.StatusOK
				if strings.Contains(path, "from=x") {
					want = http.StatusBadRequest
				}
				if code, body := get(t, ts.URL+path); code != want {
					t.Errorf("GET %s: status %d, body %s, want %d", path, code, body, want)
				}
			}
		}(c)
	}
	wg.Wait()
	m := srv.Metrics()
	if m.InFlight.Load() != 0 {
		t.Errorf("in-flight gauge %d after quiesce, want 0", m.InFlight.Load())
	}
	if m.Rejected.Load() != 0 || m.Timeouts.Load() != 0 || m.Errors.Load() != 0 {
		t.Errorf("unexpected failures: rejected %d timeouts %d errors %d",
			m.Rejected.Load(), m.Timeouts.Load(), m.Errors.Load())
	}
}

func TestErrorStatusMapping(t *testing.T) {
	fs := &fakeStore{eaErr: fmt.Errorf("fake: stop id 99 outside [0, 7): %w", core.ErrInvalidArgument)}
	srv := New(fs, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if code, body := get(t, ts.URL+"/query/ea?from=99&to=2&t=28800"); code != http.StatusBadRequest {
		t.Errorf("invalid-argument store error: status %d, body %s, want 400", code, body)
	}
	if srv.Metrics().BadRequests.Load() != 1 {
		t.Errorf("bad-requests counter %d, want 1", srv.Metrics().BadRequests.Load())
	}

	fs.eaErr = errors.New("fake: page checksum mismatch")
	if code, body := get(t, ts.URL+"/query/ea?from=1&to=2&t=28801"); code != http.StatusInternalServerError {
		t.Errorf("internal store error: status %d, body %s, want 500", code, body)
	}
	if srv.Metrics().Errors.Load() != 1 {
		t.Errorf("errors counter %d, want 1", srv.Metrics().Errors.Load())
	}

	// Parse failures are 400 before any store call.
	before := fs.calls.Load()
	for _, path := range []string{
		"/query/ea?from=1&to=2",            // missing t
		"/query/ea?from=one&to=2&t=28800",  // non-integer stop
		"/query/ea?from=1&to=2&t=morning",  // unparseable time
		"/query/eaknn?set=poi&from=1&t=60", // missing k
		// Past 32 bits: never wrapped onto stop 1 or a time of day.
		"/query/ea?from=4294967297&to=2&t=28800",
		"/query/sd?from=1&to=-2147483649&start=0&end=60",
		"/query/ea?from=1&to=2&t=4294996096",
		"/query/ea?from=1&to=2&t=600000:00:00",
		"/query/eaotm?set=poi&from=4294967297&t=60",
	} {
		if code, body := get(t, ts.URL+path); code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, body %s, want 400", path, code, body)
		}
	}
	if fs.calls.Load() != before {
		t.Errorf("malformed requests reached the store (%d calls)", fs.calls.Load()-before)
	}

	// Unknown prepared-plan names classify as caller mistakes too.
	if code, _ := get(t, ts.URL+"/plan?name=nope"); code != http.StatusBadRequest {
		t.Errorf("/plan?name=nope: status %d, want 400", code)
	}
}

// TestRejectedLatencySplit pins the satellite fix for saturation-skewed
// percentiles: instant 503 admission rejections must land in
// RejectedLatency, never in the Latency histogram real executions feed.
func TestRejectedLatencySplit(t *testing.T) {
	fs := &fakeStore{block: make(chan struct{})}
	srv := New(fs, Options{MaxInFlight: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	parked := make(chan int, 1)
	go func() {
		code, _ := get(t, ts.URL+"/query/ea?from=1&to=2&t=28800")
		parked <- code
	}()
	waitFor(t, "slot occupied", func() bool { return fs.calls.Load() == 1 })

	if code, _ := get(t, ts.URL+"/query/ea?from=3&to=4&t=28800"); code != http.StatusServiceUnavailable {
		t.Fatalf("status %d at cap, want 503", code)
	}
	m := srv.Metrics()
	if m.RejectedLatency.Snapshot().Count != 1 {
		t.Errorf("rejected-latency count %d, want 1", m.RejectedLatency.Snapshot().Count)
	}
	if got := m.Latency.Snapshot().Count; got != 0 {
		t.Errorf("latency histogram saw %d samples with only a reject completed, want 0", got)
	}

	close(fs.block)
	if code := <-parked; code != http.StatusOK {
		t.Fatalf("parked request finished with %d", code)
	}
	if got := m.Latency.Snapshot().Count; got != 1 {
		t.Errorf("latency count %d after the real execution, want 1", got)
	}
	if got := m.RejectedLatency.Snapshot().Count; got != 1 {
		t.Errorf("rejected-latency count %d after quiesce, want 1", got)
	}
}

// TestSystemEndpointsMetered pins the satellite fix for /plan and /obs
// bypassing the pipeline: they must count into Requests and Latency like
// /query/*, while the /obs snapshot itself keeps excluding the request
// carrying it (metered after completion — the zero-traffic golden relies on
// that).
func TestSystemEndpointsMetered(t *testing.T) {
	fs := &fakeStore{}
	srv := New(fs, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, path := range []string{"/plan", "/plan?name=v2v-ea"} {
		if code, body := get(t, ts.URL+path); code != http.StatusOK {
			t.Fatalf("GET %s: status %d, body %s", path, code, body)
		}
	}
	code, body := get(t, ts.URL+"/obs")
	if code != http.StatusOK {
		t.Fatalf("GET /obs: status %d", code)
	}
	// The snapshot inside the /obs response saw the two /plan requests but
	// not itself.
	if !strings.Contains(body, "\"requests\": 2") {
		t.Errorf("/obs body should report the 2 prior requests, got: %s", body)
	}
	m := srv.Metrics()
	if got := m.Requests.Load(); got != 3 {
		t.Errorf("requests counter %d after plan+plan+obs, want 3", got)
	}
	if got := m.Latency.Snapshot().Count; got != 3 {
		t.Errorf("latency count %d, want 3 (system endpoints must be metered)", got)
	}
	// Error outcomes stay classified: a bad plan name is a metered 400.
	if code, _ := get(t, ts.URL+"/plan?name=nope"); code != http.StatusBadRequest {
		t.Errorf("/plan?name=nope: status %d, want 400", code)
	}
	if m.BadRequests.Load() != 1 || m.Requests.Load() != 4 {
		t.Errorf("bad plan name: bad_requests %d requests %d, want 1 and 4",
			m.BadRequests.Load(), m.Requests.Load())
	}
}

// TestSystemEndpointDeadline proves /obs runs under the per-request deadline
// now: a store whose Snapshot hangs answers 504 instead of pinning the
// handler forever.
func TestSystemEndpointDeadline(t *testing.T) {
	fs := &fakeStore{snapBlock: make(chan struct{})}
	srv := New(fs, Options{Timeout: 30 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, _ := get(t, ts.URL+"/obs")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("/obs with hung snapshot: status %d, want 504", code)
	}
	if got := srv.Metrics().Timeouts.Load(); got != 1 {
		t.Errorf("timeouts counter %d, want 1", got)
	}
	close(fs.snapBlock)
}

// TestWriteJSONEncodeFailure pins the satellite fix for the encode-failure
// fallback: an unmarshalable value must produce a JSON 500 with the JSON
// Content-Type, not http.Error's text/plain wrapping a JSON string.
func TestWriteJSONEncodeFailure(t *testing.T) {
	for name, write := range map[string]func(http.ResponseWriter, int, any){
		"writeJSON":       writeJSON,
		"writeJSONIndent": writeJSONIndent,
	} {
		rec := httptest.NewRecorder()
		write(rec, http.StatusOK, math.NaN()) // JSON has no NaN: encoding must fail
		if rec.Code != http.StatusInternalServerError {
			t.Errorf("%s: status %d, want 500", name, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", name, ct)
		}
		var e ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: fallback body %q is not an ErrorResponse (%v)", name, rec.Body.String(), err)
		}
	}
}

func TestStatusFor(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{core.ErrInvalidArgument, http.StatusBadRequest},
		{fmt.Errorf("wrap: %w", core.ErrInvalidArgument), http.StatusBadRequest},
		{errors.Join(errors.New("other"), core.ErrInvalidArgument), http.StatusBadRequest},
		{errors.New("io failure"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := statusFor(c.err); got != c.want {
			t.Errorf("statusFor(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}
