package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ptldb/internal/obs"
)

// Pool is the shared buffer pool: a fixed number of page frames cached over
// any number of PagedFiles, with LRU replacement. It is a read cache: table
// files are written whole by WriteSegmentFile and only read afterwards, so a
// frame is never dirty and eviction is a map delete. It plays the role of
// PostgreSQL's shared_buffers in the PTLDB evaluation; DropCaches emulates
// the paper's "restart the server and clear the operating system's cache"
// step.
//
// The pool is one frame table and one LRU list under one mutex. Warm label
// reads are served by the resident vector cache above it, so the pool sees
// the cold path and the tables the vector cache declines. Device reads
// happen outside the mutex under a per-frame load latch: on a miss the frame
// is installed in a "loading" state, the mutex is dropped, the page is read
// from the device, and the result (bytes or error) is published to every
// goroutine that coalesced on the frame in the meantime. Concurrent misses
// on different pages therefore overlap their I/O; concurrent misses on the
// same page trigger exactly one device read.
//
// One rule fills the pool besides Get: a page the process has read from the
// device stays cached until something evicts it. Opening a segment reads the
// whole file, so the open pass offers every data page it does not keep as
// vectors (Offer) to the frames that are free; a restart then answers its
// first queries without reading those pages again, and a build handle's pool
// keeps what each BulkLoad wrote and re-read, up to its capacity.
//
// The bytes of a pinned frame may be read concurrently and are never
// modified. The one rule lockcheck enforces on the pool mutex (DESIGN.md §8)
// is that no page is read while it is held.
type Pool struct {
	// mu is acquisition level 20: taken after a frame latch (level 10) when a
	// failed load is published (lockordercheck).
	mu       sync.Mutex // lockcheck:shard level=20
	capacity int
	frames   map[frameKey]*Frame
	// LRU list of unpinned resident frames; head is least recently used.
	lruHead, lruTail *Frame

	nextFileID atomic.Int64

	// metrics holds the pool's observability counters (hits, misses,
	// evictions); Metrics exposes them so a database handle can graft them
	// into its obs.Registry.
	metrics obs.PoolMetrics

	// loadHook, when non-nil, runs after a loading frame is installed and
	// before its device read. Tests use it to coordinate concurrent misses.
	loadHook func(key frameKey)
}

type frameKey struct {
	file int
	page PageID
}

// Frame is one pinned buffer-pool page. Callers must Unpin it when done.
//
// Lifecycle: loading (installed pinned, ready open) → resident (ready
// closed, loadErr nil) → evicted (removed from the frame table once
// unpinned). An offered frame (Offer) starts out resident and unpinned. A
// failed load is published by closing ready with loadErr set and detaching
// the frame, so every coalesced waiter observes the error and a later Get
// retries the read from scratch.
type Frame struct {
	key frameKey

	// ready is closed once data is valid or loadErr is set; loadErr must
	// only be read after ready is closed. The latch is acquisition level 10:
	// the loader holds it open while re-taking the pool mutex (level 20) to
	// detach a failed load, so it orders strictly below it.
	ready   chan struct{} // lockcheck:latch level=10
	loadErr error

	data [PageSize]byte
	pins int

	prev, next *Frame // LRU links, valid only while unpinned and resident
}

// Data returns the page bytes, which must not be modified. The slice is valid
// while the frame is pinned.
func (f *Frame) Data() []byte { return f.data[:] }

// NewPool creates a pool with room for capacity frames (minimum 8). The
// capacity bounds the resident set; frames pinned concurrently beyond it are
// allowed as a temporary overflow and trimmed back by later allocations. The
// frame table grows with the frames the pool holds.
func NewPool(capacity int) *Pool {
	return &Pool{capacity: max(capacity, 8), frames: make(map[frameKey]*Frame)}
}

// Register assigns the pool-local id of a file. It must be called once per
// file before the first Get.
func (p *Pool) Register(f *PagedFile) {
	f.id = int(p.nextFileID.Add(1))
}

// Get pins the frame holding page id of file f, reading it from the device
// on a miss. Concurrent Gets for the same uncached page coalesce into one
// device read; all callers receive the same frame (or the same read error).
//
// hotpath — allocheck root: the resident-hit path (map probe, pin, latch
// receive, counter) must stay allocation-free; the miss tail allocates only
// inside installLocked, which is marked cold.
func (p *Pool) Get(f *PagedFile, id PageID) (*Frame, error) {
	key := frameKey{file: f.id, page: id}
	p.mu.Lock()
	if fr, ok := p.frames[key]; ok {
		if fr.pins == 0 {
			p.lruRemove(fr)
		}
		fr.pins++
		p.mu.Unlock()
		<-fr.ready // immediate for resident frames
		if fr.loadErr != nil {
			// The loader detached the frame; our pin dies with it. The
			// failed load attempt is the loader's single miss — waiters
			// that coalesced on it count neither a hit nor a miss.
			return nil, fr.loadErr
		}
		p.metrics.Hits.Add(1)
		return fr, nil
	}
	// Miss: install a loading frame (the latch), then read the page with the
	// mutex dropped so misses on other pages proceed in parallel. The miss is
	// counted up front, exactly once per load attempt, whether or not the
	// read below fails.
	fr := p.installLocked(key)
	p.mu.Unlock()
	p.metrics.Misses.Add(1)
	if p.loadHook != nil {
		p.loadHook(key)
	}
	if rerr := f.ReadPage(id, fr.data[:]); rerr != nil {
		return nil, p.failLoad(fr, rerr)
	}
	close(fr.ready)
	return fr, nil
}

// Offer installs page id of file f from bytes a caller has already read from
// the device — page, at most PageSize bytes, the rest of the frame zero — as
// a resident, unpinned frame at the LRU tail. It does so only while a frame
// is free and the page is not resident: it never evicts, and it counts no
// hit, miss or eviction, since no device read goes through the pool for it.
// OpenSegment offers every data page its pass reads and does not keep, so the
// first queries after an open find those pages resident; a caller that
// offers a page it has not verified yet must Forget the file if the check
// fails.
func (p *Pool) Offer(f *PagedFile, id PageID, page []byte) {
	key := frameKey{file: f.id, page: id}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.frames) >= p.capacity || p.frames[key] != nil {
		return
	}
	fr := &Frame{key: key, ready: make(chan struct{})}
	close(fr.ready)
	copy(fr.data[:], page)
	p.frames[key] = fr
	p.lruAppend(fr)
}

// failLoad publishes a load failure to every waiter coalesced on fr and
// detaches the frame so subsequent Gets retry from scratch.
func (p *Pool) failLoad(fr *Frame, err error) error {
	p.mu.Lock()
	delete(p.frames, fr.key)
	p.mu.Unlock()
	fr.loadErr = err
	close(fr.ready)
	return err
}

// installLocked finds room in the pool (evicting unpinned frames while at
// capacity) and installs a new loading frame pinned once. When every resident
// frame is pinned the pool overflows temporarily instead of failing: pinned
// frames must live somewhere, and later allocations and unpins trim the pool
// back to capacity. Caller holds p.mu.
//
// hotpath:cold — the pool miss path: the one place a frame and its latch are
// allocated; the runtime ratchet bounds how often it runs.
func (p *Pool) installLocked(key frameKey) *Frame {
	for len(p.frames) >= p.capacity && p.lruHead != nil {
		p.evictLocked(p.lruHead)
	}
	fr := &Frame{key: key, pins: 1, ready: make(chan struct{})}
	p.frames[key] = fr
	return fr
}

// evictLocked drops an unpinned resident frame. Caller holds p.mu.
func (p *Pool) evictLocked(victim *Frame) {
	p.lruRemove(victim)
	delete(p.frames, victim.key)
	p.metrics.Evictions.Add(1)
}

// Unpin releases one pin. Unpinned frames become eviction candidates.
func (p *Pool) Unpin(fr *Frame) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if fr.pins <= 0 {
		panic("storage: Unpin of unpinned frame")
	}
	fr.pins--
	if fr.pins == 0 && p.frames[fr.key] == fr {
		p.lruAppend(fr)
		// Trim pinned-overflow back toward capacity.
		for len(p.frames) > p.capacity && p.lruHead != nil {
			p.evictLocked(p.lruHead)
		}
	}
}

// DropCaches evicts every frame, emulating a cold server start. It fails,
// evicting nothing, if any frame is still pinned.
func (p *Pool) DropCaches() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, fr := range p.frames {
		if fr.pins > 0 {
			return fmt.Errorf("storage: DropCaches with pinned page %d", fr.key.page)
		}
	}
	clear(p.frames)
	p.lruHead, p.lruTail = nil, nil
	return nil
}

// Forget discards every cached page of f: the file is about to be deleted or
// replaced. Only f's frames are touched, which keeps it safe beside
// concurrent loads of other files (DropCaches would evict those too). A page
// still pinned is left behind — a pin on a file being deleted is a caller
// bug — and is never served again, since no later file gets f's id.
func (p *Pool) Forget(f *PagedFile) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for key, fr := range p.frames {
		if key.file == f.id && fr.pins == 0 {
			p.lruRemove(fr)
			delete(p.frames, key)
		}
	}
}

// Metrics exposes the pool's counters for grafting into an obs.Registry. The
// returned pointer is live: counters keep advancing as the pool runs.
//
// A Get that coalesces on an in-flight load counts as a hit only once the
// load succeeds; the loader counts exactly one miss per load attempt
// (successful or not), so misses equals the number of device reads issued
// through the pool, and a failed coalesced read contributes one miss and
// zero hits no matter how many goroutines were waiting on it. Evictions
// count frames displaced for capacity (by allocation or overflow trimming);
// DropCaches is a bulk reset and is deliberately not counted.
func (p *Pool) Metrics() *obs.PoolMetrics {
	return &p.metrics
}

// NumFrames returns the number of resident frames.
func (p *Pool) NumFrames() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.frames)
}

// Capacity returns the pool's frame capacity.
func (p *Pool) Capacity() int { return p.capacity }

func (p *Pool) lruAppend(fr *Frame) {
	fr.prev, fr.next = p.lruTail, nil
	if p.lruTail != nil {
		p.lruTail.next = fr
	} else {
		p.lruHead = fr
	}
	p.lruTail = fr
}

func (p *Pool) lruRemove(fr *Frame) {
	if fr.prev != nil {
		fr.prev.next = fr.next
	} else {
		p.lruHead = fr.next
	}
	if fr.next != nil {
		fr.next.prev = fr.prev
	} else {
		p.lruTail = fr.prev
	}
	fr.prev, fr.next = nil, nil
}
