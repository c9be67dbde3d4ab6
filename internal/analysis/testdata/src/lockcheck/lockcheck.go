// Package lockcheck is the golden corpus for the lockcheck checker: a
// miniature buffer-pool shard (annotated mutex) plus an ordinary registry
// mutex, with both rule families seeded — I/O and channel operations under a
// shard lock, and unbalanced Lock/Unlock paths.
package lockcheck

import "sync"

type pagedFile struct{}

func (pagedFile) WritePage(page int, data []byte) error { return nil }
func (pagedFile) ReadPage(page int, data []byte) error  { return nil }

type shard struct {
	mu     sync.Mutex // lockcheck:shard
	frames map[int][]byte
	file   pagedFile
}

type registry struct {
	mu    sync.Mutex
	items map[string]int
}

// --- rule A: nothing slow while a shard mutex is held ---

func flushUnderLock(sh *shard) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for page, data := range sh.frames {
		if err := sh.file.WritePage(page, data); err != nil { // want `device I/O \(WritePage\) while shard mutex sh\.mu is held`
			return err
		}
	}
	return nil
}

func (sh *shard) writeAll() error {
	for page, data := range sh.frames {
		if err := sh.file.WritePage(page, data); err != nil {
			return err
		}
	}
	return nil
}

func flushViaHelper(sh *shard) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.writeAll() // want `call to writeAll, which may perform device I/O or block on a channel, while shard mutex sh\.mu is held`
}

func waitUnderLock(sh *shard, ready chan struct{}) {
	sh.mu.Lock()
	<-ready // want `channel receive while shard mutex sh\.mu is held`
	sh.mu.Unlock()
}

func sendUnderLock(sh *shard, ch chan int) {
	sh.mu.Lock()
	ch <- 1 // want `channel send while shard mutex sh\.mu is held`
	sh.mu.Unlock()
}

func selectUnderLock(sh *shard, ch chan int) {
	sh.mu.Lock()
	select { // want `select \(blocking channel operation\) while shard mutex sh\.mu is held`
	case <-ch:
	default:
	}
	sh.mu.Unlock()
}

// --- rule B: every Lock has an Unlock on every path ---

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
	r.mu.Lock() // want `second Lock of r\.mu while already held \(Lock at line \d+\): deadlock`
	r.mu.Unlock()
}

func forgotten(r *registry) {
	r.mu.Lock()
	r.items["x"] = 1
} // want `function ends with r\.mu still locked \(Lock at line \d+\)`

// --- disciplined patterns that must stay clean ---

func cleanDefer(sh *shard, key int) []byte {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.frames[key]
}

// The pinned-victim protocol: device I/O strictly between the critical
// sections, never inside one.
func cleanWriteBack(sh *shard, page int) error {
	sh.mu.Lock()
	data := sh.frames[page]
	sh.mu.Unlock()
	if err := sh.file.WritePage(page, data); err != nil {
		return err
	}
	sh.mu.Lock()
	delete(sh.frames, page)
	sh.mu.Unlock()
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

// A mutex without the shard annotation may guard I/O: only the pool shards
// carry the no-I/O contract.
func cleanNonShardIO(r *registry, f pagedFile) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return f.WritePage(0, nil)
}

// close(ch) is a non-blocking channel operation and is how the pool
// publishes frame-load completion under the latch.
func cleanCloseUnderLock(sh *shard, ready chan struct{}) {
	sh.mu.Lock()
	close(ready)
	sh.mu.Unlock()
}

// --- wave-commit / worker-pool patterns (parallel preprocessing) ---

// collector is the build pool's error slot: workers finish their job first
// and only report the result under the lock.
type collector struct {
	mu  sync.Mutex // lockcheck:shard
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
// a shard mutex across whatever the job does — including device I/O.
func collectUnderLock(c *collector, sh *shard) {
	c.mu.Lock()
	if err := sh.writeAll(); err != nil { // want `call to writeAll, which may perform device I/O or block on a channel, while shard mutex c\.mu is held`
		c.err = err
	}
	c.mu.Unlock()
}

// Publishing a wave result while the commit lock is held deadlocks as soon
// as the channel is full and the reader needs the same lock.
func commitAndNotify(c *collector, done chan int, wave int) {
	c.mu.Lock()
	done <- wave // want `channel send while shard mutex c\.mu is held`
	c.mu.Unlock()
}

// Waiting for the next wave with the commit lock held stalls every worker
// that still has a result to report.
func commitAndWait(c *collector, next chan struct{}) {
	c.mu.Lock()
	<-next // want `channel receive while shard mutex c\.mu is held`
	c.mu.Unlock()
}

// --- metrics registry counters under shard locks (observability layer) ---

// shardMetrics mirrors the pool's eviction counters: plain atomic adds, safe
// to bump while a shard mutex is held because they never block or touch the
// device.
type shardMetrics struct {
	evictions int64
}

// Counting an eviction inside the critical section that performs it is the
// intended pattern and must stay clean: an atomic add holds no lock and does
// no I/O.
func cleanCountEvictionUnderLock(sh *shard, m *shardMetrics, page int) {
	sh.mu.Lock()
	delete(sh.frames, page)
	addEviction(m)
	sh.mu.Unlock()
}

func addEviction(m *shardMetrics) {
	m.evictions++ // single-goroutine corpus stand-in for atomic.AddInt64
}

// Delivering a per-query trace to a hook channel while the shard mutex is
// held blocks every pool access behind a slow consumer.
func traceUnderLock(sh *shard, traces chan int, page int) {
	sh.mu.Lock()
	delete(sh.frames, page)
	traces <- page // want `channel send while shard mutex sh\.mu is held`
	sh.mu.Unlock()
}

// Writing the slow-query log under the shard lock serializes the pool behind
// the log device: the write belongs after Unlock.
func slowLogUnderLock(sh *shard, log pagedFile, page int) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return log.WritePage(page, nil) // want `device I/O \(WritePage\) while shard mutex sh\.mu is held`
}

// --- resident vector cache admission (vcache singleflight) ---

// vcCache mirrors the vector cache: an annotated admission mutex guarding
// the building latch and the byte account, with the decode (device reads)
// strictly between critical sections.
type vcCache struct {
	mu       sync.Mutex // lockcheck:shard
	resident int64
	file     pagedFile
}

type vcEntry struct {
	building chan struct{}
}

// The disciplined singleflight: the latch is created and later closed under
// the lock (close never blocks), while the segment read runs between the two
// critical sections.
func cleanMaterialize(c *vcCache, e *vcEntry, page int) error {
	c.mu.Lock()
	latch := make(chan struct{})
	e.building = latch
	c.mu.Unlock()
	err := c.file.ReadPage(page, nil)
	c.mu.Lock()
	e.building = nil
	close(latch)
	c.resident += 1
	c.mu.Unlock()
	return err
}

// Waiting on another builder's latch inside the critical section deadlocks:
// the builder needs the same lock to publish and release the latch.
func waitForBuildUnderLock(c *vcCache, e *vcEntry) {
	c.mu.Lock()
	<-e.building // want `channel receive while shard mutex c\.mu is held`
	c.mu.Unlock()
}

// Decoding the segment while the admission lock is held serializes every
// lookup in the database behind the device.
func materializeUnderLock(c *vcCache, page int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.file.ReadPage(page, nil) // want `device I/O \(ReadPage\) while shard mutex c\.mu is held`
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
func drainUnderLock(sh *shard, ch chan int) {
	sh.mu.Lock()
	for range ch { // want `channel receive \(range\) while shard mutex sh\.mu is held`
	}
	sh.mu.Unlock()
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
func selectSendUnderLock(sh *shard, ch chan int) {
	sh.mu.Lock()
	select { // want `select \(blocking channel operation\) while shard mutex sh\.mu is held`
	case ch <- 1:
	case ch <- 2:
	}
	sh.mu.Unlock()
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
