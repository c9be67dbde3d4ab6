// Command ptldb-serve exposes built PTLDB databases over HTTP: the seven
// query types of the paper plus the prepared-plan and observability
// endpoints, with per-request timeouts and bounded in-flight admission
// control (see internal/serve and DESIGN.md §13).
//
// Usage:
//
//	ptldb-serve -db DIR [-addr 127.0.0.1:8080] [-device ssd]
//	            [-max-inflight 64] [-timeout 5s] [-drain 10s]
//	            [-slow DURATION] [-pool-pages N]
//	ptldb-serve -tenants DIR [-max-open 4] [shared flags as above]
//
// With -db, one database is served at the root paths. With -tenants, DIR's
// subdirectories (each a built database, the subdirectory name being the
// city key) are served from one process behind /t/{city}/... paths:
// databases open lazily on first request, at most -max-open stay open (LRU,
// in-flight queries pin theirs), and the -vcache-bytes and -pool-pages
// budgets are process-wide — each open tenant gets an equal share. See
// DESIGN.md §14.
//
// Endpoints (all GET, all JSON; prefix /t/{city} in -tenants mode):
//
//	/query/ea?from=S&to=G&t=T            earliest arrival
//	/query/ld?from=S&to=G&t=T            latest departure
//	/query/sd?from=S&to=G&start=T&end=T  shortest duration
//	/query/eaknn?set=N&from=S&t=T&k=K    EA k-nearest targets
//	/query/ldknn?set=N&from=S&t=T&k=K    LD k-nearest targets
//	/query/eaotm?set=N&from=S&t=T        EA one-to-many
//	/query/ldotm?set=N&from=S&t=T        LD one-to-many
//	/plan[?name=NAME]                    prepared plan(s)
//	/obs                                 observability snapshot
//	/healthz                             liveness (never prefixed)
//
// -tenants mode adds two unprefixed endpoints: /tenants (the city list with
// lifecycle counters) and /obs (the cross-tenant rollup).
//
// Time parameters accept seconds after midnight or HH:MM:SS. SIGINT/SIGTERM
// trigger a graceful drain: the listener closes, in-flight requests and the
// executions behind them finish (up to -drain), then the database(s) are
// closed.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ptldb"
	"ptldb/internal/serve"
	"ptldb/internal/tenant"
)

func main() {
	var (
		dbDir     = flag.String("db", "", "database directory (this or -tenants required)")
		tenantDir = flag.String("tenants", "", "parent directory of per-city databases; serve them all")
		maxOpen   = flag.Int("max-open", 4, "max concurrently open tenant databases (-tenants mode)")
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address")
		device    = flag.String("device", "ssd", "simulated device: hdd, ssd, ram")
		vcBytes   = flag.Int64("vcache-bytes", 0, "vector-cache budget in bytes, process-wide (0 = default, negative = no cache)")
		poolPages = flag.Int("pool-pages", 0, "buffer-pool budget in 8 KiB pages, process-wide (0 = default)")
		inflight  = flag.Int("max-inflight", 64, "max concurrent query executions before 503")
		timeout   = flag.Duration("timeout", 5*time.Second, "per-request deadline")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown window for in-flight requests")
		slow      = flag.Duration("slow", 0, "log queries slower than this to stderr (0 = off)")
	)
	flag.Parse()
	if (*dbDir == "") == (*tenantDir == "") {
		fatal(fmt.Errorf("usage: ptldb-serve {-db DIR | -tenants DIR} [flags] (see source header)"))
	}
	cfg := ptldb.Config{
		Device: *device, SlowQueryThreshold: *slow,
		VectorCacheBytes: *vcBytes, PoolPages: *poolPages,
	}
	opts := serve.Options{MaxInFlight: *inflight, Timeout: *timeout}

	var (
		srv     *serve.Server
		closeDB func() error
		what    string
	)
	if *tenantDir != "" {
		router, err := tenant.New(*tenantDir, tenant.Config{MaxOpenTenants: *maxOpen, Base: cfg})
		if err != nil {
			fatal(err)
		}
		srv = serve.NewMulti(router, opts)
		closeDB = router.Close
		what = fmt.Sprintf("tenants %s [%s], max-open %d", *tenantDir,
			strings.Join(router.Names(), " "), *maxOpen)
	} else {
		db, err := ptldb.Open(*dbDir, cfg)
		if err != nil {
			fatal(err)
		}
		srv = serve.New(db, opts)
		closeDB = db.Close
		what = "db " + *dbDir
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		_ = closeDB()
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "ptldb-serve: listening on http://%s (%s, device %s, max-inflight %d)\n",
		l.Addr(), what, *device, *inflight)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "ptldb-serve: %v, draining (up to %v)\n", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ptldb-serve: drain incomplete: %v\n", err)
		}
		// Serve has returned http.ErrServerClosed by now; surface anything else.
		if serr := <-errc; serr != nil && serr != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "ptldb-serve: %v\n", serr)
		}
		if cerr := closeDB(); cerr != nil {
			fatal(cerr)
		}
		if err != nil {
			os.Exit(1)
		}
		m := srv.Metrics()
		fmt.Fprintf(os.Stderr, "ptldb-serve: drained clean (%d requests, %d executions, %d rejected)\n",
			m.Requests.Load(), m.Executions.Load(), m.Rejected.Load())
	case err := <-errc:
		// The listener died without a signal (port stolen, fd pressure).
		_ = closeDB()
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ptldb-serve:", err)
	os.Exit(1)
}
