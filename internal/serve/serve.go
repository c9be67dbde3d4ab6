// Package serve is PTLDB's network serving layer: a stdlib net/http JSON API
// over an open database exposing the paper's seven query types plus the
// prepared-plan and observability endpoints. It is the repo's answer to the
// deployment the paper argues for — interactive transit queries served
// straight from the database — hardened with the three controls a public
// front door needs:
//
//   - per-request deadlines: a request that cannot be answered inside
//     Options.Timeout gets 504 and its handler returns; the shared execution
//     keeps running and its result still serves any later joiners;
//   - bounded admission: at most Options.MaxInFlight store executions run
//     concurrently; a saturated server answers 503 with Retry-After instead
//     of queueing unboundedly;
//   - request coalescing: identical (endpoint, args) requests in flight
//     share one execution — the buffer pool's singleflight pattern lifted to
//     the query layer, which on skewed workloads collapses the hot keys into
//     a handful of executions (benchmark/ reports serve.coalesced_ratio and
//     serve.executions_per_request on its http_tenants_open workload).
//
// Lifecycle: Serve accepts until Shutdown, which stops accepting, lets
// in-flight handlers and the executions they started finish, and returns —
// the graceful-drain half of cmd/ptldb-serve's SIGTERM handling. Counters
// live in obs.ServeMetrics and are surfaced by the /obs endpoint next to the
// store's own registry.
//
// A server built with NewMulti fronts a tenant.Router instead of one store:
// the query and system endpoints move under /t/{city}/..., /tenants lists
// the cities, and /obs becomes the cross-tenant rollup. The pipeline is
// identical — the tenant acquisition (pinning the database open, and opening
// it cold if needed) simply happens inside the flight, so the admission cap
// also bounds concurrent cold opens and a slow open answers 504 like any
// slow execution.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"ptldb/internal/core"
	"ptldb/internal/obs"
	"ptldb/internal/tenant"
	"ptldb/internal/timetable"
)

// Store is the query surface the server fronts. *ptldb.DB satisfies it; the
// lifecycle tests substitute a controllable fake.
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

// Options tunes the server. The zero value serves with the defaults below.
type Options struct {
	// MaxInFlight bounds concurrent store executions (default 64). Requests
	// that join an in-flight identical execution do not count against it.
	MaxInFlight int
	// Timeout is the per-request deadline (default 5s). A request whose
	// deadline expires gets 504; the underlying execution is left to finish
	// and publish for any joiners still inside their own deadlines.
	Timeout time.Duration
	// RetryAfter is the hint attached to 503 responses (default 1s).
	RetryAfter time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 64
	}
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Second
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	return o
}

// Server is the HTTP front end over one Store (New) or a tenant router
// (NewMulti). It is an http.Handler and also owns an optional listener
// lifecycle (Serve / Shutdown) so cmd/ptldb-serve and the tests share the
// drain logic.
type Server struct {
	store   Store          // single-database mode; nil under NewMulti
	tenants *tenant.Router // multi-tenant mode; nil under New
	opts    Options
	metrics *obs.ServeMetrics
	admit   *semaphore
	co      *coalescer
	mux     *http.ServeMux
	httpSrv *http.Server
	// runs counts the executions running detached from their handlers
	// (flights and system-endpoint runs): they outlive a request that
	// answered 504, so Shutdown waits for them after the HTTP drain.
	runs sync.WaitGroup
}

// New builds a server over store.
func New(store Store, opts Options) *Server {
	s := &Server{store: store}
	s.init(opts)
	return s
}

// NewMulti builds a multi-tenant server over router: the query and system
// endpoints move under /t/{city}/..., /tenants lists the cities, and /obs
// is the cross-tenant rollup. The router's lifecycle stays with the caller —
// close it after Shutdown has drained the in-flight queries.
func NewMulti(router *tenant.Router, opts Options) *Server {
	s := &Server{tenants: router}
	s.init(opts)
	return s
}

func (s *Server) init(opts Options) {
	s.opts = opts.withDefaults()
	s.metrics = &obs.ServeMetrics{}
	s.co = newCoalescer()
	s.admit = newSemaphore(s.opts.MaxInFlight)
	s.mux = http.NewServeMux()
	s.routes()
	s.httpSrv = &http.Server{Handler: s.mux}
}

// Metrics exposes the serving counters (the /obs endpoint embeds a snapshot
// of them; the benchmark reads them in-process).
func (s *Server) Metrics() *obs.ServeMetrics { return s.metrics }

// ServeHTTP implements http.Handler, so tests can drive the server through
// httptest without a real listener.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a graceful shutdown, like http.Server.Serve.
func (s *Server) Serve(l net.Listener) error {
	return s.httpSrv.Serve(l)
}

// Shutdown stops accepting new connections, waits for in-flight handlers to
// finish and then for every execution still running detached from a handler
// that answered 504 — the graceful-drain protocol. After a nil return no
// goroutine of the server touches the store or router, so the caller may
// close them. If ctx expires first Shutdown returns ctx.Err() and executions
// may still be running.
func (s *Server) Shutdown(ctx context.Context) error {
	if err := s.httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	drained := make(chan struct{})
	go func() {
		s.runs.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// errSaturated is the 503 body text at the admission cap.
var errSaturated = errors.New("serve: server saturated, retry later")

// do admits, coalesces, runs and awaits one query execution. It returns the
// flight's value, or an error paired with the HTTP status it maps to.
func (s *Server) do(ctx context.Context, key string, run func() (any, error)) (any, int, error) {
	s.metrics.Requests.Add(1)
	f := s.co.lookup(key)
	if f != nil {
		s.metrics.Coalesced.Add(1)
	} else {
		if !s.admit.tryAcquire() {
			s.metrics.Rejected.Add(1)
			return nil, http.StatusServiceUnavailable, errSaturated
		}
		var created bool
		f, created = s.co.begin(key)
		if created {
			s.metrics.Executions.Add(1)
			s.metrics.InFlight.Add(1)
			s.runs.Add(1)
			go s.runFlight(key, f, run)
		} else {
			// Another request created the flight between lookup and begin;
			// join it and return the slot.
			s.admit.release()
			s.metrics.Coalesced.Add(1)
		}
	}
	select {
	case <-f.done:
		if f.err != nil {
			return nil, statusFor(f.err), f.err
		}
		return f.val, http.StatusOK, nil
	case <-ctx.Done():
		s.metrics.Timeouts.Add(1)
		return nil, http.StatusGatewayTimeout, fmt.Errorf("serve: deadline exceeded after %v", s.opts.Timeout)
	}
}

// runFlight executes one admitted flight on its own goroutine, returns the
// admission slot and publishes the result — in that order: a client that has
// its answer must find the slot free, or its next request is a 503 the server
// had no reason to send. Running detached from the handler keeps the result
// available to joiners even when the originating request times out first.
func (s *Server) runFlight(key string, f *flight, run func() (any, error)) {
	defer s.runs.Done()
	v, err := run()
	s.metrics.InFlight.Add(-1)
	s.admit.release()
	s.co.finish(key, f, v, err)
}

// doSystem runs a system endpoint (/plan, /obs, /tenants) through the
// deadline half of the pipeline: the same Timeout → 504 mapping as /query/*,
// but no admission or coalescing — these endpoints read catalogs and
// counters, not store executions, so they must stay answerable on a
// saturated server. Like a flight, the run keeps going detached after a
// timeout (Shutdown waits for it); its result is dropped.
func (s *Server) doSystem(ctx context.Context, run func() (any, error)) (any, int, error) {
	type outcome struct {
		v   any
		err error
	}
	ch := make(chan outcome, 1)
	s.runs.Add(1)
	go func() {
		defer s.runs.Done()
		v, err := run()
		ch <- outcome{v: v, err: err}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			return nil, statusFor(o.err), o.err
		}
		return o.v, http.StatusOK, nil
	case <-ctx.Done():
		s.metrics.Timeouts.Add(1)
		return nil, http.StatusGatewayTimeout, fmt.Errorf("serve: deadline exceeded after %v", s.opts.Timeout)
	}
}

// statusFor maps a store error to its HTTP status: caller mistakes
// (core.ErrInvalidArgument: bad stop id, unknown target set, k out of
// range) are 400, everything else is an internal 500.
func statusFor(err error) int {
	if core.IsInvalidArgument(err) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}
