package storage

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// stampedFile creates a file with n pages, page i stamped with i, and a
// cold pool of the given capacity over it.
func stampedFile(t *testing.T, n int, capacity int) (*PagedFile, *Pool) {
	t.Helper()
	var clock Clock
	f, err := CreatePagedFile(filepath.Join(t.TempDir(), "stress.pg"), RAM, &clock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	pool := NewPool(capacity)
	pool.Register(f)
	stampPages(t, f, n)
	return f, pool
}

// stats reads the pool's hit and miss counters.
func stats(pool *Pool) (hits, misses uint64) {
	m := pool.Metrics()
	return m.Hits.Load(), m.Misses.Load()
}

// TestPoolConcurrentStress hammers a tiny pool (16 pages over a 256-page
// file) with many concurrent readers so every access fights for frames and
// eviction churns continuously, while every fourth access also offers a page
// the way an open pass does. Run under -race; page stamps verify that no
// reader ever observes another page's bytes.
func TestPoolConcurrentStress(t *testing.T) {
	const pages, capacity, workers, iters = 256, 16, 16, 400
	f, pool := stampedFile(t, pages, capacity)

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var offered [PageSize]byte
			for i := 0; i < iters; i++ {
				if rng.Intn(4) == 0 {
					id := PageID(rng.Intn(pages))
					binary.LittleEndian.PutUint32(offered[:], uint32(id))
					pool.Offer(f, id, offered[:])
				}
				// Skewed access: half the traffic on 8 hot pages keeps some
				// frames cached while the cold tail forces evictions.
				var id PageID
				if rng.Intn(2) == 0 {
					id = PageID(rng.Intn(8))
				} else {
					id = PageID(rng.Intn(pages))
				}
				fr, err := pool.Get(f, id)
				if err != nil {
					errs <- err
					return
				}
				if got := binary.LittleEndian.Uint32(fr.Data()); got != uint32(id) {
					errs <- fmt.Errorf("page %d holds stamp %d", id, got)
					pool.Unpin(fr)
					return
				}
				pool.Unpin(fr)
			}
		}(int64(w) + 1)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	hits, misses := stats(pool)
	if hits+misses != workers*iters {
		t.Errorf("hits %d + misses %d != %d accesses", hits, misses, workers*iters)
	}
	if misses == 0 {
		t.Error("stress run with a 16-page pool over 256 pages never missed")
	}
	if n, c := pool.NumFrames(), pool.Capacity(); n > c {
		t.Errorf("resident frames %d exceed capacity %d after churn", n, c)
	}
}

// pinsOf reports the pin count of the frame caching page id of f, or 0 if
// no frame is installed. Tests poll it to detect that a Get has coalesced
// on an in-flight load (loader holds one pin, each waiter adds one).
func pinsOf(pool *Pool, f *PagedFile, id PageID) int {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	if fr, ok := pool.frames[frameKey{file: f.id, page: id}]; ok {
		return fr.pins
	}
	return 0
}

// waitPins polls until the frame for page id has at least n pins.
func waitPins(t *testing.T, pool *Pool, f *PagedFile, id PageID, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for pinsOf(pool, f, id) < n {
		if time.Now().After(deadline) {
			t.Fatalf("frame for page %d never reached %d pins", id, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolSingleflightMiss forces two concurrent misses on the same page
// and asserts that exactly one device read happens: the pool's loadHook
// blocks the first loader until the second Get has coalesced on its frame.
func TestPoolSingleflightMiss(t *testing.T) {
	f, pool := stampedFile(t, 4, 64)
	hits0, misses0 := stats(pool)
	reads0 := f.Reads()

	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	pool.loadHook = func(frameKey) { entered <- struct{}{}; <-release }
	defer func() { pool.loadHook = nil }()

	type res struct {
		stamp uint32
		err   error
	}
	out := make(chan res, 2)
	read := func() {
		fr, err := pool.Get(f, 3)
		if err != nil {
			out <- res{err: err}
			return
		}
		stamp := binary.LittleEndian.Uint32(fr.Data())
		pool.Unpin(fr)
		out <- res{stamp: stamp}
	}

	go read()
	<-entered // loader installed its loading frame, now parked before the read
	go read()
	// The second Get pins the loading frame the moment it coalesces; wait
	// for that before letting the device read proceed. (The hit is only
	// counted once the load succeeds, so the counter can't be used here.)
	waitPins(t, pool, f, 3, 2)
	close(release)

	for i := 0; i < 2; i++ {
		r := <-out
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.stamp != 3 {
			t.Errorf("coalesced read returned stamp %d, want 3", r.stamp)
		}
	}
	if got := f.Reads() - reads0; got != 1 {
		t.Errorf("two concurrent misses issued %d device reads, want 1", got)
	}
	if _, m := stats(pool); m != misses0+1 {
		t.Errorf("miss counter advanced by %d, want 1", m-misses0)
	}
	if h, _ := stats(pool); h != hits0+1 {
		t.Errorf("hit counter advanced by %d, want 1 (the coalesced waiter)", h-hits0)
	}
}

// TestPoolLoadErrorCoalesced makes the device read fail (read past EOF)
// while several readers are coalesced on the loading frame: every caller
// must observe the error, the failed attempt must count exactly one miss
// and zero hits no matter how many goroutines coalesced on it, and the
// pool must stay clean — the failed frame is detached so later Gets
// retry, and valid pages remain readable.
func TestPoolLoadErrorCoalesced(t *testing.T) {
	f, pool := stampedFile(t, 2, 64)

	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	pool.loadHook = func(frameKey) { entered <- struct{}{}; <-release }

	hits0, misses0 := stats(pool)
	const badPage = PageID(99) // past EOF: ReadPage fails after the latch is installed
	const waiters = 3
	errc := make(chan error, 1+waiters)
	go func() { _, err := pool.Get(f, badPage); errc <- err }()
	<-entered
	for i := 0; i < waiters; i++ {
		go func() { _, err := pool.Get(f, badPage); errc <- err }()
	}
	// Loader's pin plus one per coalesced waiter.
	waitPins(t, pool, f, badPage, 1+waiters)
	close(release)

	for i := 0; i < 1+waiters; i++ {
		err := <-errc
		if err == nil {
			t.Fatal("coalesced Get of unreadable page returned nil error")
		}
		if !strings.Contains(err.Error(), "read past end") {
			t.Errorf("unexpected error published to waiter: %v", err)
		}
	}

	// One failed singleflight read published to N waiters is one miss (the
	// load attempt) and zero hits.
	if h, m := stats(pool); h != hits0 || m != misses0+1 {
		t.Errorf("failed coalesced load moved counters by %d hits, %d misses; want 0 hits, 1 miss",
			h-hits0, m-misses0)
	}

	// The failed frame must not poison the pool: the key is free again...
	pool.loadHook = nil
	if _, err := pool.Get(f, badPage); err == nil {
		t.Error("Get of unreadable page after failure returned nil error")
	}
	// ...and healthy pages still load.
	fr, err := pool.Get(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(fr.Data()); got != 1 {
		t.Errorf("page 1 holds stamp %d after load failure", got)
	}
	pool.Unpin(fr)
	if err := pool.DropCaches(); err != nil {
		t.Errorf("DropCaches after load failure: %v", err)
	}
}
