package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// window holds one measurement window's samples.
type window struct {
	lat [numClasses][]int64 // latency of each correct answer, ns
	ok  int
	// busy is what ok is divided by for throughput: the window's wall time,
	// or on disk_cold the summed wall plus simulated device time.
	busy time.Duration
	// ref are the reference kernel's timings taken inside the window, ns.
	ref []int64
}

// runOut is what a timed run produced.
type runOut struct {
	windows   []window
	attempted int
	failed    int
	firstFail string
	late      []int64 // open loop: how long after its due time a free connection sent, ns
	offered   float64 // open loop: scheduled requests per second
}

func (o *runOut) fail(format string, a ...any) {
	o.failed++
	if o.firstFail == "" {
		o.firstFail = fmt.Sprintf(format, a...)
	}
}

func (o *runOut) merge(p runOut) {
	for w := range o.windows {
		for c := range o.windows[w].lat {
			o.windows[w].lat[c] = append(o.windows[w].lat[c], p.windows[w].lat[c]...)
		}
		o.windows[w].ref = append(o.windows[w].ref, p.windows[w].ref...)
		o.windows[w].ok += p.windows[w].ok
		if p.windows[w].busy > o.windows[w].busy {
			o.windows[w].busy = p.windows[w].busy
		}
	}
	o.attempted += p.attempted
	o.failed += p.failed
	if o.firstFail == "" {
		o.firstFail = p.firstFail
	}
}

// refEvery is how many requests a closed loop sends between two runs of the
// reference kernel: often enough for hundreds of timings per window, seldom
// enough to cost the loop a percent or two.
const refEvery = 32

// run drives the workload for n windows of dur each and returns the samples.
func (e *env) run(seed int64, n int, dur time.Duration) runOut {
	switch e.def.Driver {
	case drvHTTPClosed:
		return e.runHTTPClosed(n, dur)
	case drvHTTPOpen:
		return e.runHTTPOpen(seed, n, dur)
	}
	return e.runDirect(n, dur, e.def.Driver == drvDiskCold)
}

// runDirect is the single-goroutine closed loop over direct method calls.
// With cold set it drops every cache before each query and adds the simulated
// device time the query was charged to its latency.
func (e *env) runDirect(n int, dur time.Duration, cold bool) runOut {
	out := runOut{windows: make([]window, n)}
	ref := newRefKernel(1)
	i := 0
	for w := range out.windows {
		win := &out.windows[w]
		start := time.Now()
		deadline := start.Add(dur)
		for {
			idx := i % len(e.reqs)
			i++
			if i%refEvery == 0 {
				ref.probe(1)
			}
			r := e.reqs[idx]
			var sim0 time.Duration
			if cold {
				if err := e.dbs[0].DropCaches(); err != nil {
					out.fail("drop caches: %v", err)
				}
				sim0 = e.dbs[0].Store().DB.Clock().Elapsed()
			}
			e.tr.mark(0, int32(idx))
			t0 := time.Now()
			got, err := ask(e.stores[r.City], r)
			t1 := time.Now()
			lat := t1.Sub(t0)
			if cold {
				lat += e.dbs[0].Store().DB.Clock().Elapsed() - sim0
				win.busy += lat
			}
			out.attempted++
			switch {
			case err != nil:
				out.fail("%s %+v: %v", kindNames[r.Kind], r, err)
			case !got.equal(e.want[idx]):
				out.fail("%s %+v answered %+v, want %+v", kindNames[r.Kind], r, got, e.want[idx])
			default:
				win.ok++
				win.lat[r.Kind.class()] = append(win.lat[r.Kind.class()], int64(lat))
			}
			if t1.After(deadline) {
				break
			}
		}
		if !cold {
			win.busy = time.Since(start)
		}
		win.ref = ref.take()
	}
	return out
}

// fetch sends request idx over c and checks the response against the bytes
// recorded at warm-up.
func (e *env) fetch(c *client, idx int, out *runOut, spanValue string) bool {
	status, body, err := c.get(e.urls[idx], spanValue)
	out.attempted++
	switch {
	case err != nil:
		out.fail("%s: %v", e.urls[idx], err)
	case status != http.StatusOK:
		out.fail("%s: HTTP %d: %s", e.urls[idx], status, body)
	case !bytes.Equal(body, e.body[idx]):
		out.fail("%s: body %s, want %s", e.urls[idx], body, e.body[idx])
	default:
		return true
	}
	return false
}

// spanValue opens a client span for request idx and renders the header that
// lets the handler wrapper attach to it. Both are zero when tracing is off.
func (e *env) spanValue(idx int) (int32, string) {
	if !e.tr.enabled() {
		return 0, ""
	}
	c := e.reqs[idx].Kind.class()
	id := e.tr.begin(spanRequest, 0, int32(idx), c)
	return id, fmt.Sprintf("%d %d %d", id, idx, c)
}

// runHTTPClosed is the closed loop over the workload's keep-alive
// connections: each sends its next request when the previous one returned.
func (e *env) runHTTPClosed(n int, dur time.Duration) runOut {
	start := time.Now()
	parts := make([]runOut, e.def.Clients)
	var wg sync.WaitGroup
	for g := range parts {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := newClient()
			defer c.close()
			out := runOut{windows: make([]window, n)}
			ref := newRefKernel(int64(g))
			i := g * len(e.reqs) / len(parts)
			for w := range out.windows {
				win := &out.windows[w]
				deadline := start.Add(time.Duration(w+1) * dur)
				for {
					idx := i % len(e.reqs)
					i++
					if i%refEvery == 0 {
						ref.probe(1)
					}
					id, hv := e.spanValue(idx)
					t0 := time.Now()
					ok := e.fetch(c, idx, &out, hv)
					t1 := time.Now()
					e.tr.end(id)
					if ok {
						cl := e.reqs[idx].Kind.class()
						win.ok++
						win.lat[cl] = append(win.lat[cl], int64(t1.Sub(t0)))
					}
					if t1.After(deadline) {
						win.busy = t1.Sub(deadline.Add(-dur))
						break
					}
				}
				win.ref = ref.take()
			}
			parts[g] = out
		}(g)
	}
	wg.Wait()
	out := runOut{windows: make([]window, n)}
	for _, p := range parts {
		out.merge(p)
	}
	return out
}

// schedule draws the open loop's due times: exponential gaps at rate per
// second until the horizon.
func schedule(seed int64, rate float64, horizon time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var due []time.Duration
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= horizon {
			return due
		}
		due = append(due, t)
	}
}

// spinMargin is how long before a due time the generator stops sleeping and
// starts yielding in a loop. A sleep on this kind of box wakes on a tick of
// about a millisecond, up to half a millisecond late; the open loop must send
// within microseconds of the schedule, or its lateness would be charged to the
// server.
const spinMargin = 1500 * time.Microsecond

func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > spinMargin:
			time.Sleep(d - spinMargin)
		default:
			runtime.Gosched()
		}
	}
}

// openLoop is the open-loop generator: request n falls due at start+due[n]
// whatever the server does, and the clients take the requests in order, each
// sending its next one as soon as it is both free and due. For every request
// it returns when it was sent and when send returned, relative to start, and
// whether the client that took it was free before the due time.
func openLoop(start time.Time, due []time.Duration, clients int, send func(client, n int)) (sent, done []time.Duration, free []bool) {
	sent, done, free = make([]time.Duration, len(due)), make([]time.Duration, len(due)), make([]bool, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if n >= len(due) {
					return
				}
				at := start.Add(due[n])
				free[n] = time.Until(at) > 0
				waitUntil(at)
				sent[n] = time.Since(start)
				send(g, n)
				done[n] = time.Since(start)
			}
		}(g)
	}
	wg.Wait()
	return sent, done, free
}

// runHTTPOpen drives the open loop over the workload's connections. Each
// latency is counted from the due time, so a stall is charged to every
// request that had to wait behind it; a send is "late" only when a free
// connection missed the due time, which is the generator's fault and not the
// server's. A request belongs to the window it fell due in; a window's
// throughput is its correct answers over the time until the last of them
// arrived, so a growing backlog shows as a lower rate.
func (e *env) runHTTPOpen(seed int64, n int, dur time.Duration) runOut {
	due := schedule(seed^0x5eed, e.def.Rate, time.Duration(n)*dur)
	clients := make([]*client, e.def.Clients)
	parts := make([]runOut, len(clients))
	for g := range clients {
		clients[g] = newClient()
		defer clients[g].close()
	}
	ok := make([]bool, len(due))
	refs := make([]*refKernel, len(clients))
	winOf := make([][]int, len(clients)) // the window of each client's i-th request
	for g := range refs {
		refs[g] = newRefKernel(int64(g))
	}
	sent, done, free := openLoop(time.Now().Add(10*time.Millisecond), due, len(clients), func(g, n int) {
		idx := n % len(e.reqs)
		id, hv := e.spanValue(idx)
		ok[n] = e.fetch(clients[g], idx, &parts[g], hv)
		e.tr.end(id)
		// One probe per request, after it, in time the connection would
		// otherwise wait in; sample i of a client belongs to its i-th request.
		refs[g].probe(1)
		winOf[g] = append(winOf[g], int(due[n]/dur))
	})
	out := runOut{windows: make([]window, n), offered: float64(len(due)) / (time.Duration(n) * dur).Seconds()}
	for _, p := range parts {
		out.attempted += p.attempted
		out.failed += p.failed
		if out.firstFail == "" {
			out.firstFail = p.firstFail
		}
	}
	for w := range out.windows {
		out.windows[w].busy = dur
	}
	for g, k := range refs {
		for i, ns := range k.take() {
			out.windows[winOf[g][i]].ref = append(out.windows[winOf[g][i]].ref, ns)
		}
	}
	for n := range due {
		w := int(due[n] / dur)
		win := &out.windows[w]
		if free[n] {
			out.late = append(out.late, int64(sent[n]-due[n]))
		}
		if ok[n] {
			c := e.reqs[n%len(e.reqs)].Kind.class()
			win.ok++
			win.lat[c] = append(win.lat[c], int64(done[n]-due[n]))
		}
		if end := done[n] - time.Duration(w)*dur; end > win.busy {
			win.busy = end
		}
	}
	return out
}
