package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"ptldb"
	"ptldb/internal/core"
	"ptldb/internal/serve"
	"ptldb/internal/tenant"
	"ptldb/internal/timetable"
)

// driver is how a workload's requests reach the program.
type driver uint8

const (
	drvEmbedded   driver = iota // closed loop, 1 goroutine, direct method calls
	drvHTTPClosed               // closed loop over keep-alive connections
	drvHTTPOpen                 // open loop at a fixed rate over keep-alive connections
	drvDiskCold                 // 1 goroutine, caches dropped before every query, simulated HDD
)

// workloadDef is one named workload. Tiers are steered only by sizing
// parameters: no workload switches an execution path or a cache off.
type workloadDef struct {
	Name   string     `json:"name"`
	Why    string     `json:"why"`
	Cities []citySpec `json:"cities"`
	Driver driver     `json:"-"`
	// Boards selects the skewed departure-board mix over the uniform one.
	Boards bool `json:"boards"`
	// Requests is the length of the generated list the run cycles through.
	Requests int `json:"requests"`
	// Clients is the number of keep-alive connections of an HTTP workload.
	Clients int `json:"clients,omitempty"`
	// Rate is the open loop's offered load in requests per second.
	Rate float64 `json:"rate_per_s,omitempty"`
	// Device, VectorCacheBytes and PoolPages size the database handle; zero
	// values are the product's defaults.
	Device           string `json:"device,omitempty"`
	VectorCacheBytes int64  `json:"vector_cache_bytes,omitempty"`
	PoolPages        int    `json:"pool_pages,omitempty"`
}

var austin = citySpec{Key: "austin", City: "Austin", Scale: 0.15}

var workloadDefs = []workloadDef{
	{
		Name: "embedded_warm", Driver: drvEmbedded, Cities: []citySpec{austin}, Requests: 4096,
		Why: "closed loop, 1 goroutine, direct calls, every table in the vector cache: fused executor and vcache tier only",
	},
	{
		Name: "http_closed", Driver: drvHTTPClosed, Cities: []citySpec{austin}, Requests: 4096, Clients: 2,
		Why: "same data behind serve.New on loopback, 2 keep-alive connections, uniform keys: adds the serve layer per class",
	},
	{
		Name: "http_tenants_open", Driver: drvHTTPOpen, Boards: true, Requests: 1024, Clients: 2, Rate: 500,
		Cities: []citySpec{austin, {Key: "slc", City: "Salt Lake City", Scale: 0.08}},
		Why:    "two cities behind serve.NewMulti, open loop at 500 req/s, 80 % hot departure boards: tenant routing and queueing",
	},
	{
		Name: "disk_cold", Driver: drvDiskCold, Cities: []citySpec{austin}, Requests: 4096,
		Device: "hdd", VectorCacheBytes: 64 << 10, PoolPages: 4096,
		Why: "caches dropped before every query, vcache below every table, simulated HDD: segment, pool and device tiers only",
	},
}

func workloadByName(name string) (*workloadDef, error) {
	for i := range workloadDefs {
		if workloadDefs[i].Name == name {
			return &workloadDefs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (d *workloadDef) config(device string) ptldb.Config {
	return ptldb.Config{Device: device, VectorCacheBytes: d.VectorCacheBytes, PoolPages: d.PoolPages}
}

// generate plans the cities and draws the request list from seed.
func (d *workloadDef) generate(seed int64) ([]request, error) {
	var infos []cityInfo
	for _, spec := range d.Cities {
		ds, err := plan(spec)
		if err != nil {
			return nil, err
		}
		infos = append(infos, ds.info)
	}
	if d.Boards {
		return boardRequests(seed, infos, d.Requests), nil
	}
	return uniformRequests(seed, infos[0], d.Requests), nil
}

// env is a set-up workload: built datasets, open handles, a listening server
// where the workload has one, and the expected answer of every request.
type env struct {
	def  *workloadDef
	tr   *tracer // nil when tracing is off
	dir  string
	data []*dataset
	reqs []request

	// stores answer direct calls, one per city; dbs are the same handles
	// unwrapped, for clocks and counters.
	stores []serve.Store
	dbs    []*ptldb.DB
	// ssd is disk_cold's second handle on the SSD model (traced run only).
	ssd    *ptldb.DB
	router *tenant.Router
	// tenantOpen is the time of each city's first Router.Acquire.
	tenantOpen []time.Duration

	srv    *serve.Server
	served chan error
	stop   func(context.Context) error
	base   string

	want []answer
	// urls and body are each request's URL and expected response body on the
	// workload's server (HTTP workloads only).
	urls []string
	body [][]byte

	build   buildTimes
	setupNs time.Duration
}

// urlOf renders a request's URL on this workload's server.
func (e *env) urlOf(r request) string {
	if e.router != nil {
		return e.base + "/t/" + e.def.Cities[r.City].Key + r.path()
	}
	return e.base + r.path()
}

// wrap puts the span-recording wrapper around a database in a traced run.
func (e *env) wrap(db tenant.DB) tenant.DB {
	if e.tr == nil {
		return db
	}
	return tracedStore{DB: db, t: e.tr}
}

// setup builds every dataset fresh into dir, reopens it with the workload's
// configuration and warms it to steady state by answering the whole request
// list once — over HTTP too where the workload has a server. No part of a
// database survives from an earlier run: a cache would carry the parent
// commit's disk image into the change's measurement.
func setup(def *workloadDef, reqs []request, dir string, tr *tracer, hook func(ptldb.Trace)) (e *env, err error) {
	e = &env{def: def, tr: tr, dir: dir, reqs: reqs}
	defer func() {
		if err != nil {
			_ = e.close()
		}
	}()
	start := time.Now()
	dirs := map[string]string{}
	for _, spec := range def.Cities {
		ds, err := plan(spec)
		if err != nil {
			return e, err
		}
		if err := ds.build(filepath.Join(dir, spec.Key)); err != nil {
			return e, err
		}
		e.data = append(e.data, ds)
		e.build.add(ds.times)
		dirs[spec.Key] = ds.dir
	}

	cfg := def.config(def.Device)
	cfg.TraceHook = hook
	if def.Driver == drvHTTPOpen {
		e.router, err = tenant.NewFromDirs(dirs, tenant.Config{
			MaxOpenTenants: len(def.Cities),
			Base:           cfg,
			Open: func(dir string, cfg ptldb.Config) (tenant.DB, error) {
				db, err := ptldb.Open(dir, cfg)
				if err != nil {
					return nil, err
				}
				e.dbs = append(e.dbs, db)
				return e.wrap(db), nil
			},
		})
		if err != nil {
			return e, err
		}
		for _, spec := range def.Cities {
			t0 := time.Now()
			t, err := e.router.Acquire(spec.Key)
			if err != nil {
				return e, err
			}
			e.tenantOpen = append(e.tenantOpen, time.Since(t0))
			// With as many slots as cities nothing is ever closed, so the
			// handle stays valid after the pin is returned.
			e.stores = append(e.stores, t.DB())
			t.Release()
		}
		e.srv = serve.NewMulti(e.router, serve.Options{})
	} else {
		db, err := ptldb.Open(e.data[0].dir, cfg)
		if err != nil {
			return e, err
		}
		e.dbs = append(e.dbs, db)
		e.stores = append(e.stores, e.wrap(db))
		if def.Driver == drvHTTPClosed {
			e.srv = serve.New(e.stores[0], serve.Options{})
		}
		if def.Driver == drvDiskCold && tr != nil {
			if e.ssd, err = ptldb.Open(e.data[0].dir, def.config("ssd")); err != nil {
				return e, err
			}
		}
	}

	e.want = make([]answer, len(reqs))
	err = forEach(len(reqs), func(_, i int) error {
		r := reqs[i]
		var err error
		if e.want[i], err = ask(e.stores[r.City], r); err != nil {
			return fmt.Errorf("warm-up %s %+v: %w", kindNames[r.Kind], r, err)
		}
		if e.ssd != nil {
			_, err = ask(e.ssd, r)
		}
		return err
	})
	if err != nil {
		return e, err
	}
	if e.srv != nil {
		if err := e.listen(); err != nil {
			return e, err
		}
		if err := e.warmHTTP(); err != nil {
			return e, err
		}
	}
	e.setupNs = time.Since(start)
	return e, nil
}

// listen puts the server on a loopback listener. An untraced run uses the
// product's own Serve; a traced run hosts the same handler behind the span
// wrapper.
func (e *env) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.base, e.served = "http://"+ln.Addr().String(), make(chan error, 1)
	if e.tr == nil {
		e.stop = e.srv.Shutdown
		go func() { e.served <- e.srv.Serve(ln) }()
		return nil
	}
	hs := &http.Server{Handler: e.tr.handler(e.srv)}
	e.stop = hs.Shutdown
	go func() { e.served <- hs.Serve(ln) }()
	return nil
}

// warmHTTP fetches every request once over the wire, requires the decoded
// body to equal the direct-handle answer and keeps the bytes: during the run
// a response is correct when it is byte-identical to them.
func (e *env) warmHTTP() error {
	e.urls = make([]string, len(e.reqs))
	e.body = make([][]byte, len(e.reqs))
	clients := make([]*client, runtime.GOMAXPROCS(0))
	for g := range clients {
		clients[g] = newClient()
		defer clients[g].close()
	}
	return forEach(len(e.reqs), func(g, i int) error {
		c, r := clients[g], e.reqs[i]
		url := e.urlOf(r)
		e.urls[i] = url
		status, body, err := c.get(url, "")
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm-up %s: HTTP %d: %s", url, status, body)
		}
		got, err := decodeBody(r.Kind, body)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", url, err)
		}
		if !got.equal(e.want[i]) {
			return fmt.Errorf("warm-up %s: body %s differs from the direct answer %+v", url, body, e.want[i])
		}
		e.body[i] = append([]byte(nil), body...)
		return nil
	})
}

// forEach calls fn(worker, 0..n-1) from GOMAXPROCS worker goroutines and
// returns their first errors. The warm-up passes use it: they are part of
// set-up time, and the read path is safe for concurrent queries.
func forEach(n int, fn func(worker, i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n && errs[g] == nil; i += workers {
				errs[g] = fn(g, i)
			}
		}(g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// decodeBody parses a 200 response into the answer it carries.
func decodeBody(k kind, body []byte) (answer, error) {
	var a answer
	if k.class() == cV2V {
		var pr serve.PointResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			return a, err
		}
		a.Found, a.Value = pr.Found, timetable.Time(pr.Value)
		return a, nil
	}
	var rr serve.ResultsResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		return a, err
	}
	for _, r := range rr.Results {
		a.Results = append(a.Results, core.Result{Stop: timetable.StopID(r.Stop), When: timetable.Time(r.When)})
	}
	return a, nil
}

// close drains the server, closes every handle and waits for the accept loop
// to end. The database directories stay for the cold-start measurement.
func (e *env) close() error {
	var errs []error
	if e.stop != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, e.stop(ctx))
		cancel()
		if err := <-e.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		e.stop = nil
	}
	if e.router != nil {
		errs = append(errs, e.router.Close())
		e.router = nil
	} else {
		for _, db := range e.dbs {
			errs = append(errs, db.Close())
		}
	}
	if e.ssd != nil {
		errs = append(errs, e.ssd.Close())
		e.ssd = nil
	}
	e.dbs, e.stores = nil, nil
	return errors.Join(errs...)
}

// diskBytesPerTuple is the database directories' size over the label tuples
// they hold, dummies included.
func (e *env) diskBytesPerTuple() float64 {
	var bytes, tuples int64
	for _, ds := range e.data {
		bytes += ds.DiskBytes["total"]
		tuples += int64(ds.LabelTuples + ds.DummyTuples)
	}
	return float64(bytes) / float64(tuples)
}

// client is one keep-alive connection of the load generator.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	return &client{hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// get fetches url, returning the status and the body; the body is valid
// until the next call. A non-empty spanValue travels in the span header.
func (c *client) get(url, spanValue string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	if spanValue != "" {
		req.Header.Set(spanHeader, spanValue)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, c.buf.Bytes(), err
}

// coldStart reopens the closed database with the workload's configuration
// and answers the first request of each class, returning the wall time and
// the simulated device time from Open to the last answer.
func (e *env) coldStart() (wall, sim time.Duration, err error) {
	var firsts []int
	seen := [numClasses]bool{}
	for i, r := range e.reqs {
		if c := r.Kind.class(); r.City == 0 && !seen[c] {
			seen[c] = true
			firsts = append(firsts, i)
		}
	}
	start := time.Now()
	var db *ptldb.DB
	closeAll, release := func() error { return nil }, func() {}
	if e.def.Driver == drvHTTPOpen {
		dirs := map[string]string{}
		for _, ds := range e.data {
			dirs[ds.Spec.Key] = ds.dir
		}
		router, err := tenant.NewFromDirs(dirs, tenant.Config{MaxOpenTenants: len(e.data), Base: e.def.config(e.def.Device)})
		if err != nil {
			return 0, 0, err
		}
		closeAll = router.Close
		t, err := router.Acquire(e.def.Cities[0].Key)
		if err != nil {
			return 0, 0, errors.Join(err, router.Close())
		}
		release = t.Release
		db = t.DB().(*ptldb.DB)
	} else {
		if db, err = ptldb.Open(e.data[0].dir, e.def.config(e.def.Device)); err != nil {
			return 0, 0, err
		}
		closeAll = db.Close
	}
	for _, i := range firsts {
		var got answer
		if got, err = ask(db, e.reqs[i]); err != nil {
			break
		}
		if !got.equal(e.want[i]) {
			err = fmt.Errorf("cold start: %+v answered %+v, want %+v", e.reqs[i], got, e.want[i])
			break
		}
	}
	wall, sim = time.Since(start), db.Store().DB.Clock().Elapsed()
	release()
	return wall, sim, errors.Join(err, closeAll())
}

// removeData deletes the workload's database directories.
func (e *env) removeData() error { return os.RemoveAll(e.dir) }

// discard is the deferred clean-up of a run: whatever is still open is closed
// (close is a no-op the second time) and the data removed. Errors have nobody
// left to go to.
func (e *env) discard() {
	_ = e.close()
	_ = e.removeData()
}
