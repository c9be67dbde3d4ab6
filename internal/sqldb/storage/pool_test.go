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
// file and a 32-page second file) with many concurrent readers so every
// access fights for frames and eviction churns continuously, while every
// fourth access also offers a page the way an open pass does, and a janitor
// keeps dropping the caches and forgetting the second file. Run under -race;
// page stamps verify that no reader ever observes another page's bytes, and
// a watcher checks that the pool never holds more frames than its capacity.
func TestPoolConcurrentStress(t *testing.T) {
	const pages, otherPages, capacity, workers, iters = 256, 32, 16, 16, 400
	f, pool := stampedFile(t, pages, capacity)
	var clock Clock
	other, err := CreatePagedFile(filepath.Join(t.TempDir(), "other.pg"), RAM, &clock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { other.Close() })
	pool.Register(other)
	stampPages(t, other, otherPages)
	reads0 := f.Reads() + other.Reads()

	stop := make(chan struct{})
	var side sync.WaitGroup
	side.Add(2)
	over := make(chan int, 1)
	go func() { // watcher
		defer side.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := pool.NumFrames(); n > capacity {
				over <- n
				return
			}
		}
	}()
	go func() { // janitor
		defer side.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Microsecond):
			}
			if i%2 == 0 {
				pool.DropCaches()
			} else {
				pool.Forget(other)
			}
		}
	}()

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
				// frames cached while the cold tail forces evictions; one
				// access in eight reads the second file.
				file, id := f, PageID(rng.Intn(pages))
				switch {
				case rng.Intn(8) == 0:
					file, id = other, PageID(rng.Intn(otherPages))
				case rng.Intn(2) == 0:
					id = PageID(rng.Intn(8))
				}
				page, err := pool.Get(file, id)
				if err != nil {
					errs <- err
					return
				}
				if got := binary.LittleEndian.Uint32(page); got != uint32(id) {
					errs <- fmt.Errorf("page %d holds stamp %d", id, got)
					return
				}
			}
		}(int64(w) + 1)
	}
	wg.Wait()
	close(stop)
	side.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	select {
	case n := <-over:
		t.Errorf("the pool held %d frames under load, capacity %d", n, capacity)
	default:
	}

	hits, misses := stats(pool)
	if hits+misses != workers*iters {
		t.Errorf("hits %d + misses %d != %d accesses", hits, misses, workers*iters)
	}
	if reads := f.Reads() + other.Reads() - reads0; misses != reads {
		t.Errorf("%d misses, %d device reads through the pool; want them equal", misses, reads)
	}
	if misses == 0 {
		t.Error("stress run with a 16-page pool over 256 pages never missed")
	}
	if n, c := pool.NumFrames(), pool.Capacity(); n > c {
		t.Errorf("resident frames %d exceed capacity %d after churn", n, c)
	}
}

// TestPoolConcurrentMissesOnOnePage starts several readers of one uncached
// page at once, round after round. Each reader that misses reads the page
// itself, so every caller gets the page's bytes, every miss is one device
// read, and the page ends up in exactly one frame however the readers
// interleaved.
func TestPoolConcurrentMissesOnOnePage(t *testing.T) {
	const rounds, readers = 32, 8
	f, pool := stampedFile(t, rounds, 64)
	reads0 := f.Reads()
	for round := 0; round < rounds; round++ {
		id := PageID(round)
		gate := make(chan struct{})
		stamps := make(chan uint32, readers)
		errs := make(chan error, readers)
		for r := 0; r < readers; r++ {
			go func() {
				<-gate
				page, err := pool.Get(f, id)
				if err != nil {
					errs <- err
					return
				}
				stamps <- binary.LittleEndian.Uint32(page)
			}()
		}
		close(gate)
		for r := 0; r < readers; r++ {
			select {
			case err := <-errs:
				t.Fatal(err)
			case got := <-stamps:
				if got != uint32(id) {
					t.Fatalf("a concurrent read of page %d returned stamp %d", id, got)
				}
			}
		}
	}
	hits, misses := stats(pool)
	if hits+misses != rounds*readers {
		t.Errorf("hits %d + misses %d != %d reads", hits, misses, rounds*readers)
	}
	if reads := f.Reads() - reads0; misses != reads || misses < rounds {
		t.Errorf("%d misses and %d device reads for %d pages; want them equal and at least one a page", misses, reads, rounds)
	}
	if n := pool.NumFrames(); n != rounds {
		t.Errorf("%d frames resident after reading %d pages, want one a page", n, rounds)
	}
	t.Logf("%d of %d pages were read more than once", misses-rounds, rounds)
}

// TestPoolLoadErrorInstallsNothing makes the device read fail (a read past
// EOF): the caller gets the error, the attempt counts one miss and no hit,
// and nothing is installed, so a retry reads again and fails again, while
// valid pages stay readable.
func TestPoolLoadErrorInstallsNothing(t *testing.T) {
	f, pool := stampedFile(t, 2, 64)
	const badPage = PageID(99)
	for attempt := 1; attempt <= 2; attempt++ {
		hits0, misses0 := stats(pool)
		_, err := pool.Get(f, badPage)
		if err == nil || !strings.Contains(err.Error(), "read past end") {
			t.Fatalf("attempt %d: Get of an unreadable page returned %v, want a read past end", attempt, err)
		}
		if h, m := stats(pool); h != hits0 || m != misses0+1 {
			t.Errorf("attempt %d moved the counters by %d hits, %d misses; want 0 and 1", attempt, h-hits0, m-misses0)
		}
		if n := pool.NumFrames(); n != 0 {
			t.Fatalf("attempt %d: a failed read left %d frames", attempt, n)
		}
	}
	page, err := pool.Get(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(page); got != 1 {
		t.Errorf("page 1 holds stamp %d after a failed read", got)
	}
}
