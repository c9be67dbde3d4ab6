// Package vcache is the resident vector cache: a byte-budgeted cache of
// materialized segments — per-table decoded []int64 column vectors plus the
// key directory — served to the scratch read paths as direct slice views.
// A hit skips the buffer pool, the payload copy and the varint decode
// entirely; the only per-lookup work left is a binary search over the key
// directory and writing value headers that alias the cached columns.
//
// The design follows the buffer pool one level up the memory hierarchy
// (vcache → segment → device):
//
//   - Admission is the only policy, decided once per table when it
//     registers: a table whose exact vector size fits what the tables
//     admitted before it left of the budget gets a share it keeps until it
//     is dropped; any other is declined there and then. Labels are read-only
//     and never go stale, so nothing is ever evicted to make room — a budget
//     just under the working set declines the last tables to register
//     instead of decoding tables over and over.
//   - Materialization is singleflight, the same latch protocol as the pool's
//     coalesced page loads: the first miss builds the table's vectors while
//     concurrent missers wait on a ready channel, so one decode serves all.
//   - Unpublished vectors (a dropped table, a cold-start Unload) are not
//     freed eagerly — in-flight queries may still hold views into them; the
//     garbage collector reclaims the arrays when the last view dies, which
//     is what makes serving uncopied slices safe.
//   - The mutex guards only the admission bookkeeping (the reserved bytes,
//     the building latches). Decode and device I/O always happen outside it.
//
// The cache is sized in bytes (Config.VectorCacheBytes). A table registers
// with the exact size of its vectors, known before any of them is built, so
// a declined table gets no slot: its lookups never reach the cache and its
// bytes are never read to be thrown away. Tables are registered per
// database handle today, but nothing in the accounting assumes one database
// — a shared multi-city cache only needs entries registered from several
// handles.
package vcache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ptldb/internal/obs"
	"ptldb/internal/sqldb/storage"
)

// Mat is one table's materialized segment: the key directory plus fully
// decoded column vectors. A Mat is immutable after construction; readers
// alias its slices freely, and Unload or Drop merely unpublishes the pointer.
type Mat struct {
	// Keys is the ascending key directory (shared with the segment's own
	// in-memory directory; both are immutable).
	Keys []storage.Key
	// Cols holds one decoded vector per table column, in storage order.
	Cols []Col
	// Bytes is the Mat's budget charge: the backing arrays of the keys and
	// every column vector.
	Bytes int64
}

// Col is one decoded column. Scalar (BIGINT) columns store row i's value at
// Ints[i] and leave Starts nil; array (BIGINT[]) columns flatten every row
// into Ints with Starts[i]:Starts[i+1] delimiting row i's elements.
type Col struct {
	Ints   []int64
	Starts []int32 // nil for scalar columns; len(Keys)+1 otherwise
}

// Array returns row i's elements of an array column. The view aliases the
// cached vector: immutable, and kept alive by the garbage collector even
// after the vectors are unpublished, so callers may retain it as long as
// they need.
func (c *Col) Array(i int) []int64 {
	return c.Ints[c.Starts[i]:c.Starts[i+1]:c.Starts[i+1]]
}

// Cache is one byte-budgeted set of materialized tables.
type Cache struct {
	budget int64
	met    *obs.VCacheMetrics

	// mu guards the reserved-byte account, the entries' dropped flags and
	// building latches, and the publication of their vectors. It is never
	// held across a decode, a device read or a blocking channel operation —
	// materialization happens between critical sections, exactly like the
	// pool's coalesced loads. Acquisition level 20: taken after a latch
	// (level 10), never while another shard-class mutex is held
	// (lockordercheck).
	mu       sync.Mutex // lockcheck:shard level=20
	reserved int64      // the shares of every admitted, undropped table
}

// New returns a cache with the given byte budget. The budget must be
// positive (a zero budget means "no cache" and is the caller's decision);
// met receives the cache's counters and must be non-nil.
func New(budget int64, met *obs.VCacheMetrics) *Cache {
	return &Cache{budget: budget, met: met}
}

// Entry is one admitted table's slot in the cache. The mat pointer is
// published with an atomic store and read with a single atomic load on the
// hot path; everything else is guarded by the cache mutex.
type Entry struct {
	cache *Cache
	mat   atomic.Pointer[Mat]

	// Guarded by cache.mu. The latch is acquisition level 10: a builder holds
	// it while re-taking cache.mu (level 20) to publish, so the latch must
	// order strictly below the mutex.
	building chan struct{} // lockcheck:latch level=10 — non-nil while a materialization is in flight
	dropped  bool          // table dropped; never materialize

	size int64 // bytes of the table's vectors: its share of the budget, fixed at Register
}

// Register decides a table's admission on the exact size of its vectors. A
// table that fits what the tables admitted before it left of the budget is
// admitted: its share is reserved now, whether or not it ever materializes,
// and kept until Drop. Any other is declined: Register counts it and returns
// nil, and the caller serves the table from its segment without ever asking
// the cache again.
func (c *Cache) Register(size int64) *Entry {
	c.mu.Lock()
	admit := size <= c.budget-c.reserved
	if admit {
		c.reserved += size
	}
	c.mu.Unlock()
	if !admit {
		c.met.Declined.Add(1)
		return nil
	}
	return &Entry{cache: c, size: size}
}

// Acquire returns the entry's materialized vectors, or nil when the table is
// not resident. It is the hot-path gate: one atomic load and a hit/miss
// counter — no locks, no allocation.
//
// hotpath — allocheck root: the warm-hit gate must stay allocation-free.
func (e *Entry) Acquire() *Mat {
	if m := e.mat.Load(); m != nil {
		e.cache.met.Hits.Add(1)
		return m
	}
	e.cache.met.Misses.Add(1)
	return nil
}

// Materialize returns the entry's vectors, building them with build if
// necessary. Concurrent callers coalesce: one runs build (outside the cache
// lock — build reads the device and decodes every row), the rest wait on the
// latch and share the result. A nil, nil return means the table was dropped
// and the caller should fall back to the segment path. build must produce
// vectors of exactly the registered size — the share was reserved for it.
func (e *Entry) Materialize(build func() (*Mat, error)) (*Mat, error) {
	c := e.cache
	for {
		if m := e.mat.Load(); m != nil {
			return m, nil
		}
		c.mu.Lock()
		if e.dropped {
			c.mu.Unlock()
			return nil, nil
		}
		if m := e.mat.Load(); m != nil {
			c.mu.Unlock()
			return m, nil
		}
		wait := e.building
		var latch chan struct{}
		if wait == nil {
			latch = make(chan struct{})
			e.building = latch
		}
		c.mu.Unlock()
		if wait != nil {
			// Someone else is building; wait outside the lock and re-check.
			<-wait
			continue
		}

		start := time.Now()
		m, err := build()
		c.mu.Lock()
		e.building = nil
		// close is non-blocking, so releasing the latch under the lock is
		// safe (the same protocol the pool uses for frame-load completion).
		close(latch)
		if err != nil {
			c.mu.Unlock()
			return nil, err
		}
		if e.dropped {
			// The table was dropped while building: discard the vectors.
			c.mu.Unlock()
			return nil, nil
		}
		if m.Bytes != e.size {
			c.mu.Unlock()
			return nil, fmt.Errorf("vcache: built %d bytes of vectors for a table registered at %d", m.Bytes, e.size)
		}
		e.mat.Store(m)
		c.met.ResidentBytes.Add(m.Bytes)
		c.mu.Unlock()

		c.met.Materializations.Add(1)
		c.met.Materialize.Observe(time.Since(start))
		return m, nil
	}
}

// Unload unpublishes the entry's vectors and keeps its share: the next miss
// rebuilds them. It is the cold-start emulation behind DB.DropCaches
// ("restart the server and clear the OS cache") — a restart would lose an
// in-memory cache, so cold measurements must too. Like Drop, it does nothing
// on a nil entry (no cache, or a declined table).
func (e *Entry) Unload() {
	if e == nil {
		return
	}
	c := e.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	e.unpublishLocked()
}

// Drop releases an entry when its table is dropped or replaced: the vectors
// are unpublished, the share returns to the budget, and a materialization
// still in flight is discarded on completion. Dropping an entry twice
// returns its share once; dropping a nil entry does nothing.
func (e *Entry) Drop() {
	if e == nil {
		return
	}
	c := e.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.dropped {
		return
	}
	e.dropped = true
	c.reserved -= e.size
	e.unpublishLocked()
}

// unpublishLocked takes the entry's vectors off the hot path. In-flight
// readers holding views stay correct: the arrays are immutable and live
// until the garbage collector sees the last view die. Caller holds
// cache.mu.
func (e *Entry) unpublishLocked() {
	if e.mat.Swap(nil) != nil {
		e.cache.met.ResidentBytes.Add(-e.size)
	}
}
