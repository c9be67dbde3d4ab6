// Package lockcheck is the golden corpus for the lockcheck checker: a
// miniature buffer pool (annotated leaf mutex) plus an ordinary registry
// mutex, with both rule families seeded — I/O, channel operations, sync
// waits and annotated-mutex acquisitions under a leaf mutex, directly and
// through the helpers of package remote, and unbalanced or re-entrant Lock
// paths.
package lockcheck

import (
	"sync"

	"ptldb/internal/analysis/testdata/src/lockcheck/remote"
)

type pagedFile struct{}

func (pagedFile) WritePage(page int, data []byte) error { return nil }
func (pagedFile) ReadPage(page int, data []byte) error  { return nil }

type pool struct {
	mu     sync.Mutex // lockcheck:leaf
	frames map[int][]byte
	file   pagedFile
}

type registry struct {
	mu    sync.Mutex
	items map[string]int
}

// --- rule 1: a held leaf mutex is a leaf ---

func flushUnderLock(p *pool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for page, data := range p.frames {
		if err := p.file.WritePage(page, data); err != nil { // want `device I/O \(WritePage\) while leaf mutex p\.mu is held`
			return err
		}
	}
	return nil
}

func (p *pool) writeAll() error {
	for page, data := range p.frames {
		if err := p.file.WritePage(page, data); err != nil {
			return err
		}
	}
	return nil
}

func flushViaHelper(p *pool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.writeAll() // want `call to writeAll, which may perform device I/O or block, while leaf mutex p\.mu is held`
}

func waitUnderLock(p *pool, ready chan struct{}) {
	p.mu.Lock()
	<-ready // want `channel receive while leaf mutex p\.mu is held`
	p.mu.Unlock()
}

func sendUnderLock(p *pool, ch chan int) {
	p.mu.Lock()
	ch <- 1 // want `channel send while leaf mutex p\.mu is held`
	p.mu.Unlock()
}

func selectUnderLock(p *pool, ch chan int) {
	p.mu.Lock()
	select { // want `select \(blocking channel operation\) while leaf mutex p\.mu is held`
	case <-ch:
	default:
	}
	p.mu.Unlock()
}

// --- rule 2: every Lock has an Unlock on every path ---

func missingUnlock(r *registry, key string) int {
	r.mu.Lock()
	if v, ok := r.items[key]; ok {
		return v // want `return with r\.mu locked \(Lock at line \d+\): missing Unlock on this path`
	}
	r.mu.Unlock()
	return 0
}

func unbalancedIf(r *registry, cond bool) {
	r.mu.Lock()
	if cond { // want `branches disagree on held locks`
		r.mu.Unlock()
	}
}

func lockSkewInLoop(r *registry, keys []string) {
	for range keys { // want `lock state changes across one loop iteration`
		r.mu.Lock()
	}
}

func doubleLock(r *registry) {
	r.mu.Lock()
	r.mu.Lock() // want `^Lock of r\.mu while already held \(Lock at line \d+\): deadlock`
	r.mu.Unlock()
}

func forgotten(r *registry) {
	r.mu.Lock()
	r.items["x"] = 1
} // want `function ends with r\.mu still locked \(Lock at line \d+\)`

// --- disciplined patterns that must stay clean ---

func cleanDefer(p *pool, key int) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.frames[key]
}

// The pinned-victim protocol: device I/O strictly between the critical
// sections, never inside one.
func cleanWriteBack(p *pool, page int) error {
	p.mu.Lock()
	data := p.frames[page]
	p.mu.Unlock()
	if err := p.file.WritePage(page, data); err != nil {
		return err
	}
	p.mu.Lock()
	delete(p.frames, page)
	p.mu.Unlock()
	return nil
}

func cleanEarlyReturn(r *registry, key string) int {
	r.mu.Lock()
	if v, ok := r.items[key]; ok {
		r.mu.Unlock()
		return v
	}
	r.mu.Unlock()
	return 0
}

func cleanDeferredClosure(r *registry) {
	r.mu.Lock()
	defer func() {
		r.items["done"] = 1
		r.mu.Unlock()
	}()
	r.items["x"] = 1
}

// A mutex without the leaf annotation may guard I/O: only annotated mutexes
// carry the leaf contract.
func cleanNonShardIO(r *registry, f pagedFile) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return f.WritePage(0, nil)
}

// close(ch) is a non-blocking channel operation and is how an opener
// publishes completion under the lock.
func cleanCloseUnderLock(p *pool, ready chan struct{}) {
	p.mu.Lock()
	close(ready)
	p.mu.Unlock()
}

// --- wave-commit / worker-pool patterns (parallel preprocessing) ---

// collector is the build pool's error slot: workers finish their job first
// and only report the result under the lock.
type collector struct {
	mu  sync.Mutex // lockcheck:leaf
	err error
}

// The disciplined shape: all work (which may do I/O) happens before the
// critical section; the lock guards only the first-error record.
func cleanCollect(c *collector, job func() error) {
	err := job()
	if err == nil {
		return
	}
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

func cleanFirstError(c *collector) error {
	c.mu.Lock()
	err := c.err
	c.mu.Unlock()
	return err
}

// Running the job inside the critical section serializes the pool and holds
// a leaf mutex across whatever the job does — including device I/O.
func collectUnderLock(c *collector, p *pool) {
	c.mu.Lock()
	if err := p.writeAll(); err != nil { // want `call to writeAll, which may perform device I/O or block, while leaf mutex c\.mu is held`
		c.err = err
	}
	c.mu.Unlock()
}

// Publishing a wave result while the commit lock is held deadlocks as soon
// as the channel is full and the reader needs the same lock.
func commitAndNotify(c *collector, done chan int, wave int) {
	c.mu.Lock()
	done <- wave // want `channel send while leaf mutex c\.mu is held`
	c.mu.Unlock()
}

// Waiting for the next wave with the commit lock held stalls every worker
// that still has a result to report.
func commitAndWait(c *collector, next chan struct{}) {
	c.mu.Lock()
	<-next // want `channel receive while leaf mutex c\.mu is held`
	c.mu.Unlock()
}

// --- metrics registry counters under leaf locks (observability layer) ---

// poolMetrics mirrors the pool's eviction counters: plain atomic adds, safe
// to bump while a leaf mutex is held because they never block or touch the
// device.
type poolMetrics struct {
	evictions int64
}

// Counting an eviction inside the critical section that performs it is the
// intended pattern and must stay clean: an atomic add holds no lock and does
// no I/O.
func cleanCountEvictionUnderLock(p *pool, m *poolMetrics, page int) {
	p.mu.Lock()
	delete(p.frames, page)
	addEviction(m)
	p.mu.Unlock()
}

func addEviction(m *poolMetrics) {
	m.evictions++ // single-goroutine corpus stand-in for atomic.AddInt64
}

// Delivering a per-query trace to a hook channel while the leaf mutex is
// held blocks every pool access behind a slow consumer.
func traceUnderLock(p *pool, traces chan int, page int) {
	p.mu.Lock()
	delete(p.frames, page)
	traces <- page // want `channel send while leaf mutex p\.mu is held`
	p.mu.Unlock()
}

// Writing the slow-query log under the leaf lock serializes the pool behind
// the log device: the write belongs after Unlock.
func slowLogUnderLock(p *pool, log pagedFile, page int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return log.WritePage(page, nil) // want `device I/O \(WritePage\) while leaf mutex p\.mu is held`
}

// --- singleflight open behind a leaf mutex (the tenant router's latch) ---

// opener mirrors the tenant router: a leaf mutex guarding each slot's
// opening latch, with the open itself (device reads) strictly between
// critical sections.
type opener struct {
	mu     sync.Mutex // lockcheck:leaf
	opened int64
	file   pagedFile
}

type openSlot struct {
	opening chan struct{}
	val     int
}

// The disciplined singleflight: the latch is created and later closed under
// the lock (close never blocks), while the read runs between the two
// critical sections.
func cleanOpen(o *opener, s *openSlot, page int) error {
	o.mu.Lock()
	latch := make(chan struct{})
	s.opening = latch
	o.mu.Unlock()
	err := o.file.ReadPage(page, nil)
	o.mu.Lock()
	s.opening = nil
	close(latch)
	o.opened += 1
	o.mu.Unlock()
	return err
}

// The full protocol: a waiter re-checks after the latch closes and waits
// with nothing held; the opener builds outside the lock and re-takes it to
// publish while its latch is still open.
func cleanOpenOrWait(o *opener, s *openSlot, build func() int) int {
	for {
		o.mu.Lock()
		if s.val != 0 {
			v := s.val
			o.mu.Unlock()
			return v
		}
		wait := s.opening
		var latch chan struct{}
		if wait == nil {
			latch = make(chan struct{})
			s.opening = latch
		}
		o.mu.Unlock()
		if wait != nil {
			<-wait
			continue
		}
		v := build()
		o.mu.Lock()
		s.opening = nil
		close(latch)
		s.val = v
		o.mu.Unlock()
		return v
	}
}

// Waiting on another opener's latch inside the critical section deadlocks:
// the opener needs the same lock to publish and close the latch.
func waitForOpenUnderLock(o *opener, s *openSlot) {
	o.mu.Lock()
	<-s.opening // want `channel receive while leaf mutex o\.mu is held`
	o.mu.Unlock()
}

// Reading the device while the lock is held serializes every lookup behind
// the device.
func openUnderLock(o *opener, page int) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.file.ReadPage(page, nil) // want `device I/O \(ReadPage\) while leaf mutex o\.mu is held`
}

// --- nesting and re-entry ---

// Two leaf critical sections never nest, whichever instances they are.
func nested(a, b *pool) {
	a.mu.Lock()
	b.mu.Lock() // want `^Lock of leaf mutex b\.mu while leaf mutex a\.mu is held`
	b.mu.Unlock()
	a.mu.Unlock()
}

func nestedAcrossTypes(p *pool, o *opener) {
	o.mu.Lock()
	p.mu.Lock() // want `^Lock of leaf mutex p\.mu while leaf mutex o\.mu is held`
	p.mu.Unlock()
	o.mu.Unlock()
}

// Re-locking a held RWMutex deadlocks in every combination: RLock waits for
// the writer that holds it, Lock for its own reader, and a second RLock for
// any writer queued behind the first (sync.RWMutex forbids recursive read
// locking).
func rlockUnderLock(t *readTable) {
	t.mu.Lock()
	t.mu.RLock() // want `RLock of t\.mu while already held \(Lock at line \d+\): deadlock`
	t.mu.RUnlock()
	t.mu.Unlock()
}

func lockUnderRLock(t *readTable) {
	t.mu.RLock()
	t.mu.Lock() // want `^Lock of t\.mu while already held \(RLock at line \d+\): deadlock`
	t.mu.Unlock()
	t.mu.RUnlock()
}

func recursiveRLock(t *readTable) {
	t.mu.RLock()
	t.mu.RLock() // want `RLock of t\.mu while already held \(RLock at line \d+\): deadlock`
	t.mu.RUnlock()
	t.mu.RUnlock()
}

// --- across a package boundary: remote's helpers under a leaf mutex ---

func remoteLockUnderLock(p *pool, c *remote.Cache) {
	p.mu.Lock()
	c.Touch() // want `call to Touch, which may acquire an annotated mutex, while leaf mutex p\.mu is held`
	p.mu.Unlock()
}

func remoteWaitUnderLock(p *pool, ready chan struct{}) {
	p.mu.Lock()
	remote.Await(ready) // want `call to Await, which may perform device I/O or block, while leaf mutex p\.mu is held`
	p.mu.Unlock()
}

func remoteDrainUnderLock(p *pool, wg *sync.WaitGroup) {
	p.mu.Lock()
	remote.Drain(wg) // want `call to Drain, which may perform device I/O or block, while leaf mutex p\.mu is held`
	p.mu.Unlock()
}

// --- sync waits: a WaitGroup's or a Cond's Wait blocks; another Wait does not ---

func waitGroupUnderLock(p *pool, wg *sync.WaitGroup) {
	p.mu.Lock()
	defer p.mu.Unlock()
	wg.Wait() // want `blocking wait \(sync\.WaitGroup\.Wait\) while leaf mutex p\.mu is held`
}

func condUnderLock(p *pool, c *sync.Cond) {
	p.mu.Lock()
	c.Wait() // want `blocking wait \(sync\.Cond\.Wait\) while leaf mutex p\.mu is held`
	p.mu.Unlock()
}

// ticket has a Wait method that only reads a field: the name alone is no wait.
type ticket struct{ n int }

func (t *ticket) Wait() int { return t.n }

func cleanNonSyncWait(p *pool, t *ticket) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return t.Wait()
}

func remoteReadUnderLock(p *pool, f *remote.File, buf []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return f.Load(0, buf) // want `call to Load, which may perform device I/O or block, while leaf mutex p\.mu is held`
}

// The same helpers between critical sections are the disciplined shape.
func cleanRemoteBetween(p *pool, c *remote.Cache, f *remote.File, buf []byte) error {
	p.mu.Lock()
	p.frames[0] = buf
	p.mu.Unlock()
	c.Touch()
	return f.Load(0, buf)
}

// --- paths the CFG sees: break, continue, package-level literals ---

// continue skips the Unlock, so the next iteration starts with the mutex
// held: the paths meeting at the post statement disagree.
func continueHoldingLock(r *registry, keys []string) {
	for i := 0; i < len(keys); i++ { // want `lock state changes across one loop iteration`
		r.mu.Lock()
		if keys[i] == "" {
			continue
		}
		r.mu.Unlock()
	}
}

// break leaves the loop with the mutex held, and the function returns
// holding it on that path: the loop's exit is where the paths disagree.
func breakHoldingLock(r *registry, keys []string) {
	for _, k := range keys { // want `branches disagree on held locks`
		r.mu.Lock()
		if k == "" {
			break
		}
		r.mu.Unlock()
	}
}

// A package-level function literal is a function like any other.
var lockAndForget = func(r *registry) {
	r.mu.Lock()
} // want `function ends with r\.mu still locked \(Lock at line \d+\)`

// Ranging over a channel receives on every iteration.
func drainUnderLock(p *pool, ch chan int) {
	p.mu.Lock()
	for range ch { // want `channel receive \(range\) while leaf mutex p\.mu is held`
	}
	p.mu.Unlock()
}

func unbalancedSwitch(r *registry, mode int) {
	r.mu.Lock()
	switch mode { // want `branches disagree on held locks`
	case 0:
		r.mu.Unlock()
	case 1:
		r.items["kept"] = 1
	default:
		r.mu.Unlock()
	}
}

// A select whose comms are sends blocks like one that receives; it is
// reported once, at the select.
func selectSendUnderLock(p *pool, ch chan int) {
	p.mu.Lock()
	select { // want `select \(blocking channel operation\) while leaf mutex p\.mu is held`
	case ch <- 1:
	case ch <- 2:
	}
	p.mu.Unlock()
}

type readTable struct {
	mu   sync.RWMutex
	rows map[int]int
}

func cleanReadLock(t *readTable, k int) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows[k]
}

// Unlocking before every way out of an iteration is the disciplined shape.
func cleanLoopExits(r *registry, keys []string) {
	for _, k := range keys {
		r.mu.Lock()
		if k == "" {
			r.mu.Unlock()
			break
		}
		if k == "skip" {
			r.mu.Unlock()
			continue
		}
		r.items[k] = 1
		r.mu.Unlock()
	}
}
