package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"ptldb/internal/obs"
)

func newTestFile(t *testing.T, dev DeviceModel, clock *Clock) (*PagedFile, *Pool) {
	t.Helper()
	f, err := CreatePagedFile(filepath.Join(t.TempDir(), "data.pg"), dev, clock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	pool := NewPool(64)
	pool.Register(f)
	return f, pool
}

// stampPages appends n pages to f, page i holding i in its first four bytes.
func stampPages(t testing.TB, f *PagedFile, n int) {
	t.Helper()
	var page [PageSize]byte
	for i := 0; i < n; i++ {
		id, err := f.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(page[:], uint32(id))
		if err := f.WritePage(id, page[:]); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPagedFileBasics(t *testing.T) {
	var clock Clock
	f, _ := newTestFile(t, RAM, &clock)
	if f.NumPages() != 0 {
		t.Fatalf("new file has %d pages", f.NumPages())
	}
	id, err := f.Allocate()
	if err != nil || id != 0 {
		t.Fatalf("Allocate = %d, %v", id, err)
	}
	buf := make([]byte, PageSize)
	copy(buf, "hello")
	if err := f.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := f.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:5], []byte("hello")) {
		t.Errorf("read back %q", got[:5])
	}
	if err := f.ReadPage(7, got); err == nil {
		t.Error("read past end succeeded")
	}
	if err := f.WritePage(7, buf); err == nil {
		t.Error("write past end succeeded")
	}
}

func TestDeviceCharging(t *testing.T) {
	var clock Clock
	f, _ := newTestFile(t, HDD, &clock)
	buf := make([]byte, PageSize)
	for i := 0; i < 4; i++ {
		if _, err := f.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	clock.Reset()
	var randReads, seqReads obs.Counter
	f.CountReads(&randReads, &seqReads)
	// First read: random. Second read of the next page: sequential.
	if err := f.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	after1 := clock.Elapsed()
	if after1 != HDD.RandRead {
		t.Errorf("first read charged %v, want %v", after1, HDD.RandRead)
	}
	if err := f.ReadPage(1, buf); err != nil {
		t.Fatal(err)
	}
	if got := clock.Elapsed() - after1; got != HDD.SeqRead {
		t.Errorf("sequential read charged %v, want %v", got, HDD.SeqRead)
	}
	// Jump back: random again.
	before := clock.Elapsed()
	if err := f.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	if got := clock.Elapsed() - before; got != HDD.RandRead {
		t.Errorf("random re-read charged %v, want %v", got, HDD.RandRead)
	}
	// A forgotten read position makes even the following page a seek.
	f.ForgetLastRead()
	before = clock.Elapsed()
	if err := f.ReadPage(1, buf); err != nil {
		t.Fatal(err)
	}
	if got := clock.Elapsed() - before; got != HDD.RandRead {
		t.Errorf("read after ForgetLastRead charged %v, want %v", got, HDD.RandRead)
	}
	// The counters split the reads exactly as the clock was charged.
	if r, s := randReads.Load(), seqReads.Load(); r != 3 || s != 1 ||
		clock.Elapsed() != time.Duration(r)*HDD.RandRead+time.Duration(s)*HDD.SeqRead {
		t.Errorf("counted %d random + %d sequential reads for %v charged, want 3 + 1", r, s, clock.Elapsed())
	}
}

func TestClockConcurrent(t *testing.T) {
	var c Clock
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			for j := 0; j < 1000; j++ {
				c.Charge(time.Microsecond)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	if c.Elapsed() != 4000*time.Microsecond {
		t.Errorf("Elapsed = %v", c.Elapsed())
	}
}

func TestPoolHitMissAndEviction(t *testing.T) {
	var clock Clock
	f, _ := newTestFile(t, RAM, &clock)
	pool := NewPool(8)
	pool.Register(f)
	if c := pool.Capacity(); c != 8 {
		t.Errorf("NewPool(8).Capacity() = %d, want 8", c)
	}

	// 20 pages, each with a distinct first byte; reading them all forces
	// evictions (pool of 8 < 20 pages).
	stampPages(t, f, 20)
	for i := 0; i < 20; i++ {
		page, err := pool.Get(f, PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		if page[0] != byte(i) {
			t.Fatalf("page %d content lost through eviction: %d", i, page[0])
		}
	}
	if _, misses := stats(pool); misses != 20 {
		t.Errorf("reading 20 pages through a cold pool missed %d times", misses)
	}
	if ev, resident := pool.Metrics().Evictions.Load(), pool.NumFrames(); ev == 0 || int(ev)+resident != 20 {
		t.Errorf("%d evictions + %d resident frames, want 20 pages accounted for", ev, resident)
	}
	// One LRU over the whole pool: the eight most recently read pages stay.
	if got, want := fmt.Sprint(residentPages(pool)), "[12 13 14 15 16 17 18 19]"; got != want {
		t.Errorf("resident pages after reading 0..19 = %s, want %s", got, want)
	}
	// Re-reading the page just touched must hit.
	h0, _ := stats(pool)
	if _, err := pool.Get(f, 19); err != nil {
		t.Fatal(err)
	}
	if h1, _ := stats(pool); h1 != h0+1 {
		t.Errorf("re-read of cached page did not hit (hits %d -> %d)", h0, h1)
	}
}

// TestPoolOffer: an offered page becomes a resident frame while a
// frame is free and the page is not resident; it never evicts, never replaces
// a resident page and moves no counter, and a later Get of it is a hit on the
// bytes offered, with no device read.
func TestPoolOffer(t *testing.T) {
	f, pool := stampedFile(t, 12, 8)
	counters := func() [3]uint64 {
		m := pool.Metrics()
		return [3]uint64{m.Hits.Load(), m.Misses.Load(), m.Evictions.Load()}
	}
	if _, err := pool.Get(f, 0); err != nil {
		t.Fatal(err)
	}
	before, reads := counters(), f.Reads()

	var page [PageSize]byte
	offer := func(id PageID, stamp uint32) {
		binary.LittleEndian.PutUint32(page[:], stamp)
		pool.Offer(f, id, page[:])
	}
	offer(0, 1000) // resident: left as it is
	for id := PageID(1); id < 12; id++ {
		offer(id, uint32(id)) // pages 1..7 fill the free frames; 8..11 find none
	}
	if got, want := fmt.Sprint(residentPages(pool)), "[0 1 2 3 4 5 6 7]"; got != want {
		t.Errorf("resident pages after offering 0..11 to a pool holding 0 of 8 = %s, want %s", got, want)
	}
	if got := counters(); got != before {
		t.Errorf("offers moved hits, misses, evictions from %v to %v", before, got)
	}
	pool.mu.Lock()
	stamp := binary.LittleEndian.Uint32(pool.frames[frameKey{file: f.id, page: 0}].data[:])
	pool.mu.Unlock()
	if stamp != 0 {
		t.Errorf("offering resident page 0 replaced its bytes: stamp %d, want 0", stamp)
	}
	// The offered pages joined the LRU behind page 0, so the next miss evicts
	// page 0.
	if _, err := pool.Get(f, 8); err != nil {
		t.Fatal(err)
	}
	reads++
	if got, want := fmt.Sprint(residentPages(pool)), "[1 2 3 4 5 6 7 8]"; got != want {
		t.Errorf("resident pages after a miss = %s, want %s", got, want)
	}
	before = counters()
	for _, id := range []PageID{1, 7} {
		page, err := pool.Get(f, id)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, PageSize)
		if err := f.ReadPage(id, want); err != nil {
			t.Fatal(err)
		}
		reads++
		if !bytes.Equal(page, want) {
			t.Errorf("page %d from the pool holds stamp %d, the file %d", id,
				binary.LittleEndian.Uint32(page), binary.LittleEndian.Uint32(want))
		}
	}
	if got := counters(); got != [3]uint64{before[0] + 2, before[1], before[2]} {
		t.Errorf("Gets of two offered pages: hits, misses, evictions %v, from %v; want two hits", got, before)
	}
	if got := f.Reads(); got != reads {
		t.Errorf("Gets of offered pages made %d device reads, want 0", got-reads)
	}
}

// residentPages lists the pages the pool holds, in ascending order.
func residentPages(pool *Pool) []PageID {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	var ids []PageID
	for key := range pool.frames {
		ids = append(ids, key.page)
	}
	slices.Sort(ids)
	return ids
}

// TestPoolPresize checks that a pool allocates for the frames it holds, not
// for its capacity: an empty default-sized pool is a few hundred bytes.
func TestPoolPresize(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pool := NewPool(131072)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(pool)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("NewPool(131072) allocated %d bytes, want < 64 KiB", got)
	}
}

// TestPoolDropCaches checks that DropCaches empties the pool, that bytes a
// reader took before it stay valid, and that the next Get of a dropped page
// misses and reads it again.
func TestPoolDropCaches(t *testing.T) {
	var clock Clock
	f, pool := newTestFile(t, RAM, &clock)
	stampPages(t, f, 43)
	var held []byte
	for i := 0; i < 43; i++ {
		page, err := pool.Get(f, PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		held = page
	}
	pool.DropCaches()
	if n := pool.NumFrames(); n != 0 {
		t.Errorf("%d frames resident after DropCaches", n)
	}
	if held[0] != 42 {
		t.Errorf("bytes of page 42 taken before DropCaches read %d after it", held[0])
	}
	_, m0 := stats(pool)
	reads := f.Reads()
	page, err := pool.Get(f, 42)
	if err != nil {
		t.Fatal(err)
	}
	if page[0] != 42 {
		t.Errorf("page 42 read back as %d after DropCaches", page[0])
	}
	if _, m := stats(pool); m != m0+1 || f.Reads() != reads+1 {
		t.Errorf("Get after DropCaches: %d misses, %d device reads; want 1 and 1", m-m0, f.Reads()-reads)
	}
}

func TestOpenPagedFileErrors(t *testing.T) {
	var clock Clock
	dir := t.TempDir()
	// Unaligned file size is rejected.
	path := filepath.Join(dir, "bad.pg")
	if err := os.WriteFile(path, make([]byte, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPagedFile(path, RAM, &clock); err == nil {
		t.Error("unaligned file accepted")
	}
	// Unreadable path.
	if _, err := OpenPagedFile(filepath.Join(dir, "no", "such", "dir.pg"), RAM, &clock); err == nil {
		t.Error("bad path accepted")
	}
	// A missing file is an error, not an empty file: opening never creates.
	missing := filepath.Join(dir, "missing.pg")
	if _, err := OpenPagedFile(missing, RAM, &clock); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("open of a missing file: %v, want fs.ErrNotExist", err)
	}
	if _, err := os.Stat(missing); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("open of a missing file left something behind: %v", err)
	}
	// An open file is read-only.
	w, err := CreatePagedFile(filepath.Join(dir, "ro.pg"), RAM, &clock)
	if err != nil {
		t.Fatal(err)
	}
	stampPages(t, w, 1)
	w.Close()
	f, err := OpenPagedFile(filepath.Join(dir, "ro.pg"), RAM, &clock)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.WritePage(0, make([]byte, PageSize)); err == nil {
		t.Error("write to a file opened for reading succeeded")
	}
	if _, err := f.Allocate(); err == nil {
		t.Error("growing a file opened for reading succeeded")
	}
}
