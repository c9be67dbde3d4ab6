// Package serve is PTLDB's network serving layer: a stdlib net/http JSON API
// over an open database exposing the paper's seven query types plus the
// prepared-plan and observability endpoints. It is the repo's answer to the
// deployment the paper argues for — interactive transit queries served
// straight from the database — hardened with the two controls a public
// front door needs:
//
//   - per-request deadlines: a request that cannot be answered inside
//     Options.Timeout gets 504 and its handler returns; the execution keeps
//     running detached, holding its admission slot until the store returns,
//     and its result is dropped;
//   - bounded admission: at most Options.MaxInFlight store executions run
//     concurrently; a saturated server answers 503 with Retry-After instead
//     of queueing unboundedly.
//
// Every admitted query is its own execution: identical requests in flight
// are not merged (on the benchmark's skewed http_tenants_open workload no two
// identical requests were ever in flight together — DESIGN.md §13.1).
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
// identical — the tenant acquisition (opening the database on the city's
// first request) simply happens inside the detached execution, so the
// admission cap also bounds concurrent cold opens and a slow open answers 504
// like any slow execution.
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
)

// Store is the query surface the server fronts, declared once as
// tenant.Store. *ptldb.DB satisfies it; the lifecycle tests substitute a
// controllable fake.
type Store = tenant.Store

// Options tunes the server. The zero value serves with the defaults below.
type Options struct {
	// MaxInFlight bounds concurrent store executions (default 64).
	MaxInFlight int
	// Timeout is the per-request deadline (default 5s). A request whose
	// deadline expires gets 504; the underlying execution is left to finish
	// and keeps its admission slot until it does.
	Timeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 64
	}
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Second
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
	mux     *http.ServeMux
	httpSrv *http.Server
	// runs counts the executions running detached from their handlers
	// (queries and system-endpoint runs, see await): they outlive a request
	// that answered 504, so Shutdown waits for them after the HTTP drain.
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

// retryAfter is the hint a 503 carries in its Retry-After header.
const retryAfter = time.Second

// do admits and awaits one query execution: a free admission slot or 503,
// then the run under the deadline (await). It returns the run's value, or an
// error paired with the HTTP status it maps to.
func (s *Server) do(ctx context.Context, run func() (answer, error)) (answer, int, error) {
	s.metrics.Requests.Add(1)
	if !s.admit.tryAcquire() {
		s.metrics.Rejected.Add(1)
		return answer{}, http.StatusServiceUnavailable, errSaturated
	}
	s.metrics.Executions.Add(1)
	s.metrics.InFlight.Add(1)
	return await(s, ctx, func() (answer, error) {
		v, err := run()
		// The slot is back before the result is published: a client that has
		// its answer must find the slot free, or its next request is a 503
		// the server had no reason to send. The gauge drops after the slot,
		// so a gauge of 0 means every slot is free.
		s.admit.release()
		s.metrics.InFlight.Add(-1)
		return v, err
	})
}

// await runs one execution of s detached from its handler and waits for the
// result or the deadline. The store cannot be interrupted, so a run whose
// request answered 504 keeps going and its result is dropped; s.runs counts
// it so Shutdown waits for it. The system endpoints (/plan, /obs, /tenants)
// call await directly, without admission: they read catalogs and counters,
// not store executions, so they must stay answerable on a saturated server.
// T is a query's unrendered answer or a system endpoint's response value.
func await[T any](s *Server, ctx context.Context, run func() (T, error)) (T, int, error) {
	type outcome struct {
		v   T
		err error
	}
	var zero T
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
			return zero, statusFor(o.err), o.err
		}
		return o.v, http.StatusOK, nil
	case <-ctx.Done():
		s.metrics.Timeouts.Add(1)
		return zero, http.StatusGatewayTimeout, fmt.Errorf("serve: deadline exceeded after %v", s.opts.Timeout)
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
