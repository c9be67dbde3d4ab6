// Package vcache is the resident vector cache: a byte-budgeted cache of
// decoded segments — per-table decoded []int64 vectors (one per scalar
// column, one shared by every array column) plus the key directory — served
// to the scratch read paths as direct slice views.
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
//   - An admitted table is published once: its opener decodes it from the
//     bytes the open already read and verified and publishes the vectors
//     before any query can reach the table (sqldb.Open decodes every
//     admitted table before it returns), so a lookup never misses.
//   - Dropped vectors are not freed eagerly — in-flight queries may still
//     hold views into them; the garbage collector reclaims the arrays when
//     the last view dies, which is what makes serving uncopied slices safe.
//   - The mutex guards only the admission bookkeeping (the reserved bytes,
//     the dropped flags). Decode and device I/O never happen under it.
//
// The cache is sized in bytes (Config.VectorCacheBytes). A table registers
// with the exact size of its vectors, known before any of them is built, so
// a declined table gets no slot: its lookups never reach the cache and its
// bytes are never kept to be decoded. Tables are registered per database
// handle today, but nothing in the accounting assumes one database — a
// shared multi-city cache only needs entries registered from several
// handles.
package vcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ptldb/internal/obs"
	"ptldb/internal/sqldb/storage"
)

// Mat is one table's decoded segment: the key directory plus fully decoded
// column vectors. A Mat is immutable after construction; readers alias its
// slices freely, and Drop merely releases its share.
type Mat struct {
	// Keys is the ascending key directory (shared with the segment's own
	// in-memory directory; both are immutable).
	Keys []storage.Key
	// Cols holds one decoded column per table column, in storage order.
	Cols []Col
	// Elems is every array element of the table, row by row and, within a
	// row, column by column; Starts is where each of them begins: the a-th
	// array column of row i spans Elems[Starts[i·A+a]:Starts[i·A+a+1]], A
	// the number of array columns, so Starts has len(Keys)·A + 1 entries.
	// The array columns of Cols are views of the two.
	Elems  []int64
	Starts []int32
	// Bytes is the Mat's budget charge: the backing arrays of the keys, the
	// scalar columns, Elems and Starts.
	Bytes int64
}

// Col is one decoded column. A scalar (BIGINT) column stores row i's value at
// Ints[i] and leaves Starts nil. An array (BIGINT[]) column is a view of its
// Mat's shared vectors: Ints is Mat.Elems, Starts is Mat.Starts from the
// column's own first entry, and Stride is the number of array columns, so
// Starts[i·Stride]:Starts[i·Stride+1] delimits row i's elements.
type Col struct {
	Ints   []int64
	Starts []int32 // nil for scalar columns
	Stride int
}

// Array returns row i's elements of an array column. The view aliases the
// cached vector: immutable, and kept alive by the garbage collector even
// after the table is dropped, so callers may retain it as long as they need.
func (c *Col) Array(i int) []int64 {
	j := i * c.Stride
	return c.Ints[c.Starts[j]:c.Starts[j+1]:c.Starts[j+1]]
}

// Cache is one byte-budgeted set of decoded tables.
type Cache struct {
	budget int64
	met    *obs.VCacheMetrics

	// mu guards the reserved-byte account and the entries' dropped flags. It
	// is never held across a decode, a device read or a blocking channel
	// operation. Acquisition level 20, never taken while another shard-class
	// mutex is held (lockordercheck).
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
// published once, by an atomic compare-and-swap, and read with a single
// atomic load on the hot path; the dropped flag is guarded by the cache
// mutex.
type Entry struct {
	cache   *Cache
	mat     atomic.Pointer[Mat]
	dropped bool  // share returned to the budget
	size    int64 // bytes of the table's vectors: its share of the budget, fixed at Register
}

// Free returns the part of the budget no admitted table holds: the largest
// share a table registering now can be admitted with. The opener of a table
// stops keeping its bytes for a decode once a lower bound on the size of its
// vectors passes it.
func (c *Cache) Free() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.budget - c.reserved
}

// Register decides a table's admission on the exact size of its vectors. A
// table that fits what the tables admitted before it left of the budget is
// admitted: its share is reserved now and kept until Drop, and the caller
// publishes its vectors before any reader reaches the entry. Any other is
// declined: Register counts it and returns nil, and the caller serves the
// table from its segment without ever asking the cache again.
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

// Acquire returns the entry's vectors. It is the hot-path gate: one atomic
// load and the hit counter — no locks, no allocation. The entry's vectors
// were published before any reader could reach it, so there is no miss.
//
// hotpath — allocheck root: the warm-hit gate must stay allocation-free.
func (e *Entry) Acquire() *Mat {
	e.cache.met.Hits.Add(1)
	return e.mat.Load()
}

// Publish builds the entry's vectors with build and makes them the ones
// Acquire returns. An entry is published once, between Register and the
// first read: a second Publish, or vectors of any size but the registered
// one — the share was reserved for exactly that — is an error and publishes
// nothing, as is a failed build.
func (e *Entry) Publish(build func() (*Mat, error)) error {
	start := time.Now()
	m, err := build()
	if err != nil {
		return err
	}
	if m.Bytes != e.size {
		return fmt.Errorf("vcache: built %d bytes of vectors for a table registered at %d", m.Bytes, e.size)
	}
	if !e.mat.CompareAndSwap(nil, m) {
		return errors.New("vcache: vectors published twice")
	}
	c := e.cache
	c.met.ResidentBytes.Add(m.Bytes)
	c.met.Materializations.Add(1)
	c.met.Materialize.Observe(time.Since(start))
	return nil
}

// Drop releases an entry when its table is dropped or replaced: its share
// returns to the budget and its vectors leave the resident bytes. Readers
// holding views stay correct — the arrays are immutable and live until the
// garbage collector sees the last view die. Dropping an entry twice returns
// its share once; dropping a nil entry does nothing.
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
	if e.mat.Swap(nil) != nil {
		c.met.ResidentBytes.Add(-e.size)
	}
}
