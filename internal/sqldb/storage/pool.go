package storage

import (
	"sync"
	"sync/atomic"

	"ptldb/internal/obs"
)

// Pool is the shared buffer pool: at most a fixed number of page frames
// cached over any number of PagedFiles, with LRU replacement. It is a read
// cache: table files are written whole by WriteSegmentFile and only read
// afterwards, so a frame is never dirty and eviction is a map delete. It
// plays the role of PostgreSQL's shared_buffers in the PTLDB evaluation;
// DropCaches emulates the paper's "restart the server and clear the operating
// system's cache" step.
//
// The pool is one frame table and one LRU list under one mutex. Warm label
// reads are served by the resident vector cache above it, so the pool sees
// the cold path and the tables the vector cache declines. A frame's bytes
// never change once it is installed, and the pool never reuses a frame: a
// miss reads into a fresh one. Get therefore hands out the frame's bytes
// themselves, with nothing to release: an evicted frame stays valid for as
// long as a reader holds its bytes, and the garbage collector frees it after
// the last one. A miss reads the page with the mutex released, so misses
// overlap their device time; two concurrent misses on one page are two
// device reads, and the later one installs nothing.
//
// One rule fills the pool besides Get: a page the process has read from the
// device stays cached until something evicts it. Opening a segment reads the
// whole file, so the open pass offers every data page it does not keep as
// vectors (Offer) to the frames that are free; a restart then answers its
// first queries without reading those pages again, and a build handle's pool
// keeps what each BulkLoad wrote and re-read, up to its capacity.
//
// The one rule lockcheck enforces on the pool mutex (DESIGN.md §8) is that no
// page is read while it is held.
type Pool struct {
	// mu is acquisition level 20, never taken while another shard-class
	// mutex is held (lockordercheck).
	mu       sync.Mutex // lockcheck:shard level=20
	capacity int
	frames   map[frameKey]*frame
	// LRU list of the resident frames; head is least recently used.
	lruHead, lruTail *frame

	nextFileID atomic.Int64

	// metrics holds the pool's observability counters (hits, misses,
	// evictions); Metrics exposes them so a database handle can graft them
	// into its obs.Registry.
	metrics obs.PoolMetrics
}

type frameKey struct {
	file int
	page PageID
}

// frame is one cached page: its bytes never change after it is installed.
type frame struct {
	key        frameKey
	data       [PageSize]byte
	prev, next *frame // LRU links
}

// NewPool creates a pool with room for capacity frames (minimum 8). The
// capacity bounds the resident set; the frame table grows with the frames
// the pool holds.
func NewPool(capacity int) *Pool {
	return &Pool{capacity: max(capacity, 8), frames: make(map[frameKey]*frame)}
}

// Register assigns the pool-local id of a file. It must be called once per
// file before the first Get.
func (p *Pool) Register(f *PagedFile) {
	f.id = int(p.nextFileID.Add(1))
}

// Get returns the bytes of page id of file f, reading the page from the
// device on a miss. The bytes must not be modified; they stay valid after the
// page is evicted.
//
// hotpath — allocheck root: the resident-hit path (map probe, LRU move,
// counter) must stay allocation-free; the miss allocates only inside miss,
// which is marked cold.
func (p *Pool) Get(f *PagedFile, id PageID) ([]byte, error) {
	key := frameKey{file: f.id, page: id}
	p.mu.Lock()
	fr, ok := p.frames[key]
	if ok {
		p.lruRemove(fr)
		p.lruAppend(fr)
	}
	p.mu.Unlock()
	if !ok {
		return p.miss(f, key)
	}
	p.metrics.Hits.Add(1)
	return fr.data[:], nil
}

// miss reads a page into a fresh frame with no lock held and installs it,
// evicting from the LRU head while the pool is at capacity. A page another
// miss installed meanwhile is left as it is: this reader keeps its own bytes
// and installs nothing. A failed read installs nothing either; it counts its
// miss like every device read through the pool.
//
// hotpath:cold — the pool miss path: the one place Get allocates a frame;
// the runtime ratchet bounds how often it runs.
func (p *Pool) miss(f *PagedFile, key frameKey) ([]byte, error) {
	p.metrics.Misses.Add(1)
	fr := &frame{key: key}
	if err := f.ReadPage(key.page, fr.data[:]); err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.frames[key] == nil {
		for len(p.frames) >= p.capacity {
			victim := p.lruHead
			p.lruRemove(victim)
			delete(p.frames, victim.key)
			p.metrics.Evictions.Add(1)
		}
		p.installLocked(fr)
	}
	p.mu.Unlock()
	return fr.data[:], nil
}

// Offer installs page id of file f from bytes a caller has already read from
// the device — page, at most PageSize bytes, the rest of the frame zero — as
// a resident frame at the LRU tail. It does so only while a frame is free and
// the page is not resident: it never evicts, and it counts no hit, miss or
// eviction, since no device read goes through the pool for it. OpenSegment
// offers every data page its pass reads and does not keep, so the first
// queries after an open find those pages resident; a caller that offers a
// page it has not verified yet must Forget the file if the check fails.
func (p *Pool) Offer(f *PagedFile, id PageID, page []byte) {
	key := frameKey{file: f.id, page: id}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.frames) >= p.capacity || p.frames[key] != nil {
		return
	}
	fr := &frame{key: key}
	copy(fr.data[:], page)
	p.installLocked(fr)
}

// installLocked adds fr to the frame table and the LRU tail. Caller holds
// p.mu.
func (p *Pool) installLocked(fr *frame) {
	p.frames[fr.key] = fr
	p.lruAppend(fr)
}

// DropCaches evicts every frame, emulating a cold server start. Bytes a
// reader still holds stay valid.
func (p *Pool) DropCaches() {
	p.mu.Lock()
	defer p.mu.Unlock()
	clear(p.frames)
	p.lruHead, p.lruTail = nil, nil
}

// Forget discards every cached page of f: the file is about to be deleted or
// replaced. Only f's frames are touched, so other files keep their pages
// (DropCaches would evict those too). No later file gets f's id, so a page of
// f a concurrent miss installs afterwards is never served again.
func (p *Pool) Forget(f *PagedFile) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for key, fr := range p.frames {
		if key.file == f.id {
			p.lruRemove(fr)
			delete(p.frames, key)
		}
	}
}

// Metrics exposes the pool's counters for grafting into an obs.Registry. The
// returned pointer is live: counters keep advancing as the pool runs.
//
// Every Get counts one hit or one miss, and every miss is one device read
// through the pool, failed or not. Evictions count frames displaced for
// capacity; DropCaches and Forget are bulk resets and are not counted.
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

func (p *Pool) lruAppend(fr *frame) {
	fr.prev, fr.next = p.lruTail, nil
	if p.lruTail != nil {
		p.lruTail.next = fr
	} else {
		p.lruHead = fr
	}
	p.lruTail = fr
}

func (p *Pool) lruRemove(fr *frame) {
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
