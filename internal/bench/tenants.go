package bench

// tenants.go is the cross-tenant isolation experiment behind ptldb-bench
// -exp tenants: one multi-tenant server (internal/tenant behind
// serve.NewMulti, real TCP listener) fronts two city databases on a
// RealLatency ssd device, and the question is what a cold tenant costs its
// warm neighbours. Cell one measures city A alone — warm, fixed-rate
// open-loop EA queries, client-observed percentiles. Cell two offers the
// identical load on A while a churner hammers city B from stone cold: the
// first request pays B's database open, and every request after it drags
// B's working set through B's budget share (the vector-cache and pool
// budgets are process-wide, split per open tenant). The p99 ratio between
// the cells is the isolation headline; the acceptance bar is staying under
// 2x.
//
// The experiment hard-fails on correctness, not on speed: both tenants must
// answer exactly like direct handles on the same directories, and the
// rollup /obs totals must equal the per-tenant sums.

import (
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"ptldb"
	"ptldb/internal/serve"
	"ptldb/internal/tenant"
)

// tenantCell is the measured outcome of one isolation cell.
type tenantCell struct {
	sent, ok, failed int
	p50, p99         time.Duration
	qps              float64
	churnRequests    uint64 // requests the churner completed against B
	churnOpens       uint64 // B's database opens (1 in the churn cell)
}

// Tenants runs the multi-tenant isolation experiment on the first two
// configured cities.
func (w *Workspace) Tenants() (*Table, error) {
	cfg := w.cfg
	if len(cfg.Cities) < 2 {
		return nil, fmt.Errorf("bench: -exp tenants needs two cities, got %v (pass e.g. -cities Austin,Berlin)", cfg.Cities)
	}
	dsA, err := w.Dataset(cfg.Cities[0])
	if err != nil {
		return nil, err
	}
	dsB, err := w.Dataset(cfg.Cities[1])
	if err != nil {
		return nil, err
	}
	keyA, keyB := sanitize(cfg.Cities[0]), sanitize(cfg.Cities[1])

	// The churner needs a target set on B: one-to-many scans are the most
	// device-hungry query, the worst case a cold neighbour can offer.
	dbB, err := w.Open(dsB, "ram")
	if err != nil {
		return nil, err
	}
	setB, err := w.EnsureTargetSet(dsB, dbB, 0.05, 4)
	if cerr := dbB.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	// Measured load on A: uniform point EA queries, the latency-sensitive
	// foreground. Churn load on B: uniform EA-OTM scans.
	wlA := w.NewWorkload(dsA, cfg.Queries)
	pathsA := make([]string, cfg.Queries)
	for i := range pathsA {
		pathsA[i] = "/t/" + keyA + serve.V2VPath("ea", wlA.Sources[i], wlA.Goals[i], wlA.Starts[i])
	}
	wlB := w.NewWorkload(dsB, cfg.Queries)
	pathsB := make([]string, cfg.Queries)
	for i := range pathsB {
		pathsB[i] = "/t/" + keyB + serve.OTMPath("eaotm", setB, wlB.Sources[i], wlB.Starts[i])
	}

	dirs := map[string]string{keyA: dsA.Dir, keyB: dsB.Dir}
	base := ptldb.Config{
		Device: "ssd", RealLatency: true,
		DisableFusedExec: cfg.FusedOff,
	}
	rcfg := tenant.Config{
		MaxOpenTenants:   2,
		VectorCacheBytes: cfg.VCacheBytes,
		PoolPages:        cfg.PoolPages,
		Base:             base,
	}

	t := &Table{
		ID: "tenants",
		Title: fmt.Sprintf("cross-tenant isolation: %s (warm, EA point queries, %d clients x %.0f req/s for %v) measured alone vs beside a cold %s churner (EA-OTM scans)",
			cfg.Cities[0], tenantClients, cfg.ServeRate, cfg.ServeDuration, cfg.Cities[1]),
		Columns: []string{"cell", "offered", "ok", "failed", "p50 us", "p99 us", "qps",
			"B requests", "B opens"},
		Notes: []string{
			"Both cells run the identical router config (max-open 2, process-wide budgets split per tenant), so A's budget share is constant; the cells differ only in B's load.",
			"RealLatency ssd device: simulated device charges consume wall-clock time, so B's cold open and scans contend for real time, not just a virtual clock.",
			"The churner starts with B never opened: its first request pays the database open inside the serving pipeline.",
		},
	}

	// p99 over one window is the ~N/100th-worst sample — noisy on a shared
	// host. Each cell runs tenantRepeats independent windows (fresh router
	// and server every time, so the churn cell pays a cold open in each) and
	// the median-p99 window is the reported one; the individual p99s land in
	// a note.
	cells := make(map[string]tenantCell, 2)
	for _, churn := range []bool{false, true} {
		name := "baseline"
		if churn {
			name = "cold-churn"
		}
		reps := make([]tenantCell, tenantRepeats)
		for i := range reps {
			w.logf("tenants: %s cell %d/%d (%v offered load on %s)", name, i+1, tenantRepeats, cfg.ServeDuration, keyA)
			reps[i], err = w.tenantCell(dirs, rcfg, keyA, keyB, pathsA, pathsB, churn)
			if err != nil {
				return nil, err
			}
		}
		sort.Slice(reps, func(i, j int) bool { return reps[i].p99 < reps[j].p99 })
		p99s := make([]string, len(reps))
		for i, r := range reps {
			p99s[i] = fmt.Sprintf("%dus", r.p99.Microseconds())
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s p99 across %d windows: %v (median window reported).",
			name, tenantRepeats, p99s))
		cell := reps[len(reps)/2]
		cells[name] = cell
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", cell.sent),
			fmt.Sprintf("%d", cell.ok),
			fmt.Sprintf("%d", cell.failed),
			fmt.Sprintf("%d", cell.p50.Microseconds()),
			fmt.Sprintf("%d", cell.p99.Microseconds()),
			fmt.Sprintf("%.0f", cell.qps),
			fmt.Sprintf("%d", cell.churnRequests),
			fmt.Sprintf("%d", cell.churnOpens),
		})
	}

	ratio := float64(cells["cold-churn"].p99) / float64(cells["baseline"].p99)
	t.Notes = append(t.Notes, fmt.Sprintf(
		"isolation: warm %s p99 %dus beside the cold %s churner vs %dus alone — ratio %.2fx (acceptance bar: < 2x).",
		keyA, cells["cold-churn"].p99.Microseconds(), keyB,
		cells["baseline"].p99.Microseconds(), ratio))

	if err := w.tenantCorrectness(dirs, rcfg, dsA, dsB, keyA, keyB); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"correctness probe: both tenants answered identically to direct handles on the same directories, and the rollup /obs totals equalled the per-tenant sums.")
	return t, nil
}

// tenantClients is the fixed foreground client count: enough concurrency to
// populate a p99, low enough that the baseline cell is far from saturation
// (the experiment isolates cross-tenant interference, not admission).
const tenantClients = 4

// tenantRepeats is the number of independent measurement windows per cell.
const tenantRepeats = 3

// tenantCell starts a fresh multi-tenant server over dirs, warms tenant
// keyA, then measures open-loop load on A — beside a B churner when churn is
// set, with B cold at measurement start.
func (w *Workspace) tenantCell(dirs map[string]string, rcfg tenant.Config, keyA, keyB string, pathsA, pathsB []string, churn bool) (tenantCell, error) {
	var cell tenantCell
	router, err := tenant.NewFromDirs(dirs, rcfg)
	if err != nil {
		return cell, err
	}
	srv := serve.NewMulti(router, serve.Options{
		MaxInFlight: w.cfg.ServeMaxInFlight,
		Timeout:     10 * time.Second,
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = router.Close()
		return cell, err
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	base := "http://" + l.Addr().String()
	httpc := &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64},
	}

	// Warm A through the server: opens the tenant and faults its working set
	// into A's budget share. B stays untouched — cold by construction.
	for _, p := range pathsA {
		resp, err := httpc.Get(base + p)
		if err != nil {
			_ = router.Close()
			return cell, err
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			_ = router.Close()
			return cell, fmt.Errorf("bench: warmup %s: HTTP %d", p, resp.StatusCode)
		}
	}
	if n := router.Metrics(keyB).Opens.Load(); n != 0 {
		_ = router.Close()
		return cell, fmt.Errorf("bench: tenant %s opened %d times before the churner started", keyB, n)
	}

	// The churner: one client dragging B through the pipeline, starting
	// stone cold, until the measured window ends. It fires at the same fixed
	// rate as one foreground client — already heavier work, since each
	// request is a one-to-many scan against a cold cache — so the cells
	// compare tenant interference (the cold open, the budget shares, device
	// contention), not how far an unbounded load can saturate the host's
	// scheduler.
	churnStop := make(chan struct{})
	var churnWG sync.WaitGroup
	if churn {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			tick := time.NewTicker(time.Duration(float64(time.Second) / w.cfg.ServeRate))
			defer tick.Stop()
			for i := 0; ; i++ {
				select {
				case <-churnStop:
					return
				case <-tick.C:
				}
				resp, err := httpc.Get(base + pathsB[i%len(pathsB)])
				if err == nil {
					_ = resp.Body.Close()
				}
			}
		}()
	}

	// Foreground: tenantClients open-loop clients at the configured rate.
	interval := time.Duration(float64(time.Second) / w.cfg.ServeRate)
	perClient := int(w.cfg.ServeDuration / interval)
	if perClient < 1 {
		perClient = 1
	}
	var (
		mu        sync.Mutex
		latencies []time.Duration
		failed    int
		wg        sync.WaitGroup
		reqWG     sync.WaitGroup
	)
	start := time.Now().Add(10 * time.Millisecond)
	for c := 0; c < tenantClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			first := start.Add(time.Duration(c) * interval / time.Duration(tenantClients))
			for i := 0; i < perClient; i++ {
				due := first.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				path := pathsA[(c*perClient+i)%len(pathsA)]
				reqWG.Add(1)
				go func() {
					defer reqWG.Done()
					t0 := time.Now()
					resp, err := httpc.Get(base + path)
					lat := time.Since(t0)
					mu.Lock()
					defer mu.Unlock()
					if err != nil {
						failed++
						return
					}
					_ = resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						latencies = append(latencies, lat)
					} else {
						failed++
					}
				}()
			}
		}(c)
	}
	wg.Wait()
	reqWG.Wait()
	elapsed := time.Since(start)
	close(churnStop)
	churnWG.Wait()

	if err := shutdownServer(srv, errc); err != nil {
		_ = router.Close()
		return cell, err
	}
	mB := router.Metrics(keyB)
	cell = tenantCell{
		sent:          tenantClients * perClient,
		ok:            len(latencies),
		failed:        failed,
		qps:           float64(len(latencies)) / elapsed.Seconds(),
		churnRequests: mB.Requests.Load(),
		churnOpens:    mB.Opens.Load(),
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	cell.p50, cell.p99 = pctl(latencies, 0.50), pctl(latencies, 0.99)
	if err := router.Close(); err != nil {
		return cell, err
	}
	if churn && cell.churnOpens != 1 {
		return cell, fmt.Errorf("bench: churn cell opened %s %d times, want exactly 1 cold open", keyB, cell.churnOpens)
	}
	if !churn && cell.churnRequests != 0 {
		return cell, fmt.Errorf("bench: baseline cell saw %d requests on %s, want 0", cell.churnRequests, keyB)
	}
	return cell, nil
}

// tenantCorrectness hard-fails the experiment unless both tenants answer
// exactly like direct handles on the same directories and the rollup /obs
// totals are the per-tenant sums.
func (w *Workspace) tenantCorrectness(dirs map[string]string, rcfg tenant.Config, dsA, dsB *Dataset, keyA, keyB string) error {
	router, err := tenant.NewFromDirs(dirs, rcfg)
	if err != nil {
		return err
	}
	defer func() { _ = router.Close() }()
	srv := serve.NewMulti(router, serve.Options{Timeout: 10 * time.Second})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	base := "http://" + l.Addr().String()

	probes := 0
	for _, tc := range []struct {
		key string
		ds  *Dataset
	}{{keyA, dsA}, {keyB, dsB}} {
		direct, err := w.Open(tc.ds, "ram")
		if err != nil {
			return err
		}
		client := &serve.Client{BaseURL: base, Tenant: tc.key}
		wl := w.NewWorkload(tc.ds, 25)
		for i := range wl.Sources {
			wantV, wantOK, err := direct.EarliestArrival(wl.Sources[i], wl.Goals[i], wl.Starts[i])
			if err != nil {
				_ = direct.Close()
				return err
			}
			gotV, gotOK, err := client.EarliestArrival(wl.Sources[i], wl.Goals[i], wl.Starts[i])
			if err != nil {
				_ = direct.Close()
				return err
			}
			if gotV != wantV || gotOK != wantOK {
				_ = direct.Close()
				return fmt.Errorf("bench: tenant %s EA(%d,%d,%d) = (%v,%v) via server, (%v,%v) direct",
					tc.key, wl.Sources[i], wl.Goals[i], wl.Starts[i], gotV, gotOK, wantV, wantOK)
			}
			probes++
		}
		if err := direct.Close(); err != nil {
			return err
		}
	}

	var roll serve.MultiObsResponse
	if err := (&serve.Client{BaseURL: base}).Get("/obs", &roll); err != nil {
		return err
	}
	var sum uint64
	for _, ts := range roll.Tenants {
		sum += ts.Requests
	}
	if roll.Totals.Requests != sum || sum != uint64(probes) {
		return fmt.Errorf("bench: rollup totals %d, per-tenant sum %d, probes issued %d — must all agree",
			roll.Totals.Requests, sum, probes)
	}
	return shutdownServer(srv, errc)
}
