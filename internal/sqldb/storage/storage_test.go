package storage

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"ptldb/internal/obs"
)

func newTestFile(t *testing.T, dev DeviceModel, clock *Clock) (*PagedFile, *Pool) {
	t.Helper()
	f, err := OpenPagedFile(filepath.Join(t.TempDir(), "data.pg"), dev, clock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	pool := NewPool(64)
	pool.Register(f)
	return f, pool
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
	// The counters split the reads exactly as the clock was charged.
	if r, s := randReads.Load(), seqReads.Load(); r != 2 || s != 1 ||
		clock.Elapsed() != time.Duration(r)*HDD.RandRead+time.Duration(s)*HDD.SeqRead {
		t.Errorf("counted %d random + %d sequential reads for %v charged, want 2 + 1", r, s, clock.Elapsed())
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
	f, err := OpenPagedFile(filepath.Join(t.TempDir(), "p.pg"), RAM, &clock)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pool := NewPool(8)
	pool.Register(f)

	// Create 20 pages, each with a distinct first byte.
	for i := 0; i < 20; i++ {
		fr, err := pool.NewPage(f)
		if err != nil {
			t.Fatal(err)
		}
		fr.Data()[0] = byte(i)
		fr.MarkDirty()
		pool.Unpin(fr)
	}
	// Reading them all back forces evictions (pool of 8 < 20 pages) and
	// write-back of dirty frames.
	for i := 0; i < 20; i++ {
		fr, err := pool.Get(f, PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		if fr.Data()[0] != byte(i) {
			t.Fatalf("page %d content lost through eviction: %d", i, fr.Data()[0])
		}
		pool.Unpin(fr)
	}
	_, misses := pool.Stats()
	if misses == 0 {
		t.Errorf("reading 20 pages through an 8-frame pool missed 0 times")
	}
	// Re-reading the page just touched must hit.
	h0, _ := pool.Stats()
	fr, err := pool.Get(f, 19)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(fr)
	if h1, _ := pool.Stats(); h1 != h0+1 {
		t.Errorf("re-read of cached page did not hit (hits %d -> %d)", h0, h1)
	}
}

func TestPoolDropCaches(t *testing.T) {
	var clock Clock
	f, pool := newTestFile(t, RAM, &clock)
	fr, err := pool.NewPage(f)
	if err != nil {
		t.Fatal(err)
	}
	fr.Data()[0] = 42
	fr.MarkDirty()
	if err := pool.DropCaches(); err == nil {
		t.Error("DropCaches with pinned frame succeeded")
	}
	pool.Unpin(fr)
	if err := pool.DropCaches(); err != nil {
		t.Fatal(err)
	}
	_, m0 := pool.Stats()
	fr, err = pool.Get(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Data()[0] != 42 {
		t.Error("dirty page lost by DropCaches")
	}
	pool.Unpin(fr)
	if _, m := pool.Stats(); m != m0+1 {
		t.Error("Get after DropCaches did not miss")
	}
}

// TestPoolPinnedOverflow pins more frames than the pool's capacity: the
// sharded pool admits them as a temporary overflow (pinned frames must live
// somewhere) and trims the resident set back toward capacity once they are
// unpinned and fresh allocations force eviction.
func TestPoolPinnedOverflow(t *testing.T) {
	var clock Clock
	f, err := OpenPagedFile(filepath.Join(t.TempDir(), "x.pg"), RAM, &clock)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pool := NewPool(8)
	pool.Register(f)
	cap := pool.Capacity()
	var frames []*Frame
	for i := 0; i < 2*cap; i++ {
		fr, err := pool.NewPage(f)
		if err != nil {
			t.Fatalf("NewPage %d with pinned overflow: %v", i, err)
		}
		frames = append(frames, fr)
	}
	if n := pool.NumFrames(); n != 2*cap {
		t.Errorf("NumFrames = %d, want %d pinned frames resident", n, 2*cap)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for _, fr := range frames {
		pool.Unpin(fr)
	}
	// Eviction churn (re-reads far exceeding capacity) must trim the
	// resident set back under the configured capacity.
	for i := 0; i < 4*cap; i++ {
		fr, err := pool.Get(f, PageID(i%(2*cap)))
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(fr)
	}
	if n := pool.NumFrames(); n > cap {
		t.Errorf("NumFrames = %d after churn, want <= capacity %d", n, cap)
	}
}

func TestRowStoreRoundTrip(t *testing.T) {
	var clock Clock
	f, pool := newTestFile(t, RAM, &clock)
	rs, err := OpenRowStore(f, pool)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var locs []Locator
	var rows [][]byte
	for i := 0; i < 200; i++ {
		// Mix of tiny rows and rows spanning multiple pages.
		n := rng.Intn(64)
		if i%17 == 0 {
			n = PageSize + rng.Intn(3*PageSize)
		}
		row := make([]byte, n)
		rng.Read(row)
		loc, err := rs.Append(row)
		if err != nil {
			t.Fatal(err)
		}
		locs = append(locs, loc)
		rows = append(rows, row)
	}
	for i, loc := range locs {
		got, err := rs.Read(loc)
		if err != nil {
			t.Fatalf("Read(%d): %v", i, err)
		}
		if !bytes.Equal(got, rows[i]) {
			t.Fatalf("row %d mismatch (len %d vs %d)", i, len(got), len(rows[i]))
		}
	}
}

func TestRowStorePersistence(t *testing.T) {
	dir := t.TempDir()
	var clock Clock
	path := filepath.Join(dir, "rs.pg")

	f, err := OpenPagedFile(path, RAM, &clock)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(32)
	pool.Register(f)
	rs, err := OpenRowStore(f, pool)
	if err != nil {
		t.Fatal(err)
	}
	var locs []Locator
	for i := 0; i < 50; i++ {
		loc, err := rs.Append(bytes.Repeat([]byte{byte(i)}, 100+i*37))
		if err != nil {
			t.Fatal(err)
		}
		locs = append(locs, loc)
	}
	if err := rs.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Reopen from disk.
	f2, err := OpenPagedFile(path, RAM, &clock)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	pool2 := NewPool(32)
	pool2.Register(f2)
	rs2, err := OpenRowStore(f2, pool2)
	if err != nil {
		t.Fatal(err)
	}
	if rs2.Count() != 50 {
		t.Fatalf("Count after reopen = %d", rs2.Count())
	}
	for i, loc := range locs {
		got, err := rs2.Read(loc)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 100+i*37 || got[0] != byte(i) {
			t.Fatalf("row %d corrupt after reopen", i)
		}
	}
	// Appending after reopen continues the stream.
	if _, err := rs2.Append([]byte("more")); err != nil {
		t.Fatal(err)
	}
	n := 0
	err = rs2.Scan(func(_ Locator, b []byte) error { n++; return nil })
	if err != nil || n != 51 {
		t.Fatalf("Scan after reopen: n=%d err=%v", n, err)
	}
}

func TestRowStoreScan(t *testing.T) {
	var clock Clock
	f, pool := newTestFile(t, RAM, &clock)
	rs, err := OpenRowStore(f, pool)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("a"), bytes.Repeat([]byte("b"), PageSize*2), []byte(""), []byte("ddd")}
	var locs []Locator
	for _, r := range want {
		loc, err := rs.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		locs = append(locs, loc)
	}
	i := 0
	err = rs.Scan(func(loc Locator, b []byte) error {
		if !bytes.Equal(b, want[i]) {
			t.Errorf("scan row %d = %d bytes, want %d", i, len(b), len(want[i]))
		}
		if loc != locs[i] {
			t.Errorf("scan row %d locator %+v, want %+v", i, loc, locs[i])
		}
		i++
		return nil
	})
	if err != nil || i != len(want) {
		t.Fatalf("Scan: i=%d err=%v", i, err)
	}
}

func TestBTreeInsertGet(t *testing.T) {
	var clock Clock
	f, pool := newTestFile(t, RAM, &clock)
	bt, err := OpenBTree(f, pool)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	rng := rand.New(rand.NewSource(2))
	perm := rng.Perm(n)
	for _, i := range perm {
		k := Key{int64(i / 100), int64(i % 100)}
		if err := bt.Insert(k, Locator{Page: PageID(i), Off: uint32(i), Len: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if bt.Count() != n {
		t.Fatalf("Count = %d", bt.Count())
	}
	if _, err := bt.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		k := Key{int64(i / 100), int64(i % 100)}
		loc, ok, err := bt.Get(k)
		if err != nil || !ok || loc.Page != PageID(i) {
			t.Fatalf("Get(%v) = %+v, %v, %v", k, loc, ok, err)
		}
	}
	if _, ok, _ := bt.Get(Key{999, 999}); ok {
		t.Error("Get of absent key returned ok")
	}
	// Replacement does not grow the count.
	if err := bt.Insert(Key{0, 0}, Locator{Page: 777}); err != nil {
		t.Fatal(err)
	}
	if bt.Count() != n {
		t.Errorf("Count after replace = %d", bt.Count())
	}
	loc, ok, _ := bt.Get(Key{0, 0})
	if !ok || loc.Page != 777 {
		t.Errorf("replaced value not visible: %+v", loc)
	}
}

func TestBTreeRangeScan(t *testing.T) {
	var clock Clock
	f, pool := newTestFile(t, RAM, &clock)
	bt, err := OpenBTree(f, pool)
	if err != nil {
		t.Fatal(err)
	}
	// Keys (h, d) for h in [0,50), d in multiples of 10.
	for h := int64(0); h < 50; h++ {
		for d := int64(0); d < 200; d += 10 {
			if err := bt.Insert(Key{h, d}, Locator{Page: PageID(h), Off: uint32(d)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Range scan: hub 7, d >= 95 -> 100, 110, ..., 190.
	cur, err := bt.Seek(Key{7, 95})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var got []int64
	for cur.Valid() && cur.Key()[0] == 7 {
		got = append(got, cur.Key()[1])
		if err := cur.Next(); err != nil {
			t.Fatal(err)
		}
	}
	want := []int64{100, 110, 120, 130, 140, 150, 160, 170, 180, 190}
	if len(got) != len(want) {
		t.Fatalf("range scan = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range scan = %v, want %v", got, want)
		}
	}
}

func TestBTreePersistence(t *testing.T) {
	dir := t.TempDir()
	var clock Clock
	path := filepath.Join(dir, "bt.pg")
	f, err := OpenPagedFile(path, RAM, &clock)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(64)
	pool.Register(f)
	bt, err := OpenBTree(f, pool)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 2000; i++ {
		if err := bt.Insert(Key{i, -i}, Locator{Page: PageID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := bt.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	f2, err := OpenPagedFile(path, RAM, &clock)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	pool2 := NewPool(64)
	pool2.Register(f2)
	bt2, err := OpenBTree(f2, pool2)
	if err != nil {
		t.Fatal(err)
	}
	if bt2.Count() != 2000 {
		t.Fatalf("Count after reopen = %d", bt2.Count())
	}
	for i := int64(0); i < 2000; i += 97 {
		loc, ok, err := bt2.Get(Key{i, -i})
		if err != nil || !ok || loc.Page != PageID(i) {
			t.Fatalf("Get(%d) after reopen = %+v %v %v", i, loc, ok, err)
		}
	}
}

// TestBTreeRandomAgainstMap is a property test comparing the tree with a
// reference map under random inserts (including negative and duplicate keys).
func TestBTreeRandomAgainstMap(t *testing.T) {
	var clock Clock
	f, pool := newTestFile(t, RAM, &clock)
	bt, err := OpenBTree(f, pool)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	ref := map[Key]Locator{}
	for i := 0; i < 8000; i++ {
		k := Key{rng.Int63n(100) - 50, rng.Int63n(1000) - 500}
		loc := Locator{Page: PageID(rng.Uint32()), Off: rng.Uint32(), Len: rng.Uint32()}
		ref[k] = loc
		if err := bt.Insert(k, loc); err != nil {
			t.Fatal(err)
		}
	}
	if bt.Count() != uint64(len(ref)) {
		t.Fatalf("Count = %d, want %d", bt.Count(), len(ref))
	}
	if _, err := bt.Validate(); err != nil {
		t.Fatal(err)
	}
	for k, want := range ref {
		got, ok, err := bt.Get(k)
		if err != nil || !ok || got != want {
			t.Fatalf("Get(%v) = %+v %v %v, want %+v", k, got, ok, err, want)
		}
	}
	// Full scan order matches sorted reference keys.
	keys := make([]Key, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].Less(keys[b]) })
	cur, err := bt.SeekFirst()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for i := 0; cur.Valid(); i++ {
		if cur.Key() != keys[i] {
			t.Fatalf("scan position %d = %v, want %v", i, cur.Key(), keys[i])
		}
		if err := cur.Next(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBTreeSeekPastEnd(t *testing.T) {
	var clock Clock
	f, pool := newTestFile(t, RAM, &clock)
	bt, err := OpenBTree(f, pool)
	if err != nil {
		t.Fatal(err)
	}
	bt.Insert(Key{1, 1}, Locator{})
	cur, err := bt.Seek(Key{5, 0})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if cur.Valid() {
		t.Error("Seek past last key is Valid")
	}
}

func TestBTreeEmpty(t *testing.T) {
	var clock Clock
	f, pool := newTestFile(t, RAM, &clock)
	bt, err := OpenBTree(f, pool)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := bt.Get(Key{0, 0}); ok {
		t.Error("Get on empty tree returned ok")
	}
	cur, err := bt.SeekFirst()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if cur.Valid() {
		t.Error("cursor on empty tree is Valid")
	}
	if n, err := bt.Validate(); n != 0 || err != nil {
		t.Errorf("Validate empty = %d, %v", n, err)
	}
	if bt.Height() != 1 {
		t.Errorf("Height = %d", bt.Height())
	}
}

// TestBTreeInternalSplits drives enough sequential inserts to split internal
// nodes (leaf ~292 entries, internal ~409 children: > 120k keys gives height
// 3) and validates the structure plus cursor state accessors.
func TestBTreeInternalSplits(t *testing.T) {
	var clock Clock
	f, pool := newTestFile(t, RAM, &clock)
	bt, err := OpenBTree(f, pool)
	if err != nil {
		t.Fatal(err)
	}
	const n = 130000
	for i := int64(0); i < n; i++ {
		if err := bt.Insert(Key{i, 0}, Locator{Page: PageID(i % 1000), Off: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if bt.Height() < 3 {
		t.Fatalf("height = %d, want >= 3", bt.Height())
	}
	if cnt, err := bt.Validate(); err != nil || cnt != n {
		t.Fatalf("Validate = %d, %v", cnt, err)
	}
	dump, err := bt.DebugDump()
	if err != nil || !strings.Contains(dump, "int") || !strings.Contains(dump, "leaf") {
		t.Fatalf("DebugDump: %v\n%.200s", err, dump)
	}
	cur, err := bt.Seek(Key{64999, 0})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if !cur.Valid() || cur.Key() != (Key{64999, 0}) || cur.Locator().Off != 64999 {
		t.Fatalf("cursor at %v, loc %+v", cur.Key(), cur.Locator())
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestBTreeReverseAndInterleavedInserts splits left-heavy nodes (pos < mid)
// and exercises the non-sequential split ratio.
func TestBTreeReverseAndInterleavedInserts(t *testing.T) {
	var clock Clock
	f, pool := newTestFile(t, RAM, &clock)
	bt, err := OpenBTree(f, pool)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	for i := int64(n - 1); i >= 0; i-- {
		if err := bt.Insert(Key{i, -i}, Locator{Page: PageID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < n; i++ {
		if loc, ok, err := bt.Get(Key{i, -i}); err != nil || !ok || loc.Page != PageID(i) {
			t.Fatalf("Get(%d) = %+v %v %v", i, loc, ok, err)
		}
	}
	if _, err := bt.Validate(); err != nil {
		t.Fatal(err)
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
}
