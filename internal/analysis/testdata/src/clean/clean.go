// Package clean is the negative corpus: a miniature, disciplined version of
// the pool/metrics plumbing that every checker runs over and must leave
// without a single finding.
package clean

import (
	"fmt"
	"sync"
)

type pagedFile struct{}

func (pagedFile) WritePage(page int, data []byte) error { return nil }

type pool struct {
	mu     sync.Mutex // lockcheck:leaf
	frames map[int][]byte
}

// get follows the pool discipline: critical sections touch only memory, and
// the device write happens between them.
func get(sh *pool, f pagedFile, page int) ([]byte, error) {
	sh.mu.Lock()
	data, ok := sh.frames[page]
	sh.mu.Unlock()
	if ok {
		return data, nil
	}
	buf := make([]byte, 8)
	if err := f.WritePage(page, buf); err != nil {
		return nil, err
	}
	sh.mu.Lock()
	sh.frames[page] = buf
	sh.mu.Unlock()
	return buf, nil
}

type rowScratch struct {
	Arena []int64
}

// latched pairs a publication latch with a leaf admission mutex: the
// opener keeps its latch open across re-taking the mutex, and nothing
// receives from the latch under the mutex.
type latched struct {
	mu    sync.Mutex // lockcheck:leaf
	ready chan struct{}
	val   int64
}

// publish opens the latch under the mutex, builds outside it, and re-locks
// to publish while still holding the latch.
func publish(l *latched, build func() int64) {
	l.mu.Lock()
	latch := make(chan struct{})
	l.ready = latch
	l.mu.Unlock()
	v := build()
	l.mu.Lock()
	l.val = v
	l.ready = nil
	close(latch)
	l.mu.Unlock()
}

// flight/coalescer mirror a request-coalescing protocol: the per-key latch
// is opened under the leaf registry mutex, detached executions publish by
// re-taking the mutex with nothing held, and waiters block on the latch
// with nothing held.
type flight struct {
	done chan struct{}
	val  int64
}

type coalescer struct {
	mu      sync.Mutex // lockcheck:leaf
	flights map[string]*flight
}

// share joins an in-flight execution for key or becomes its leader: the
// leader runs build outside every lock and publishes under the mutex before
// closing the latch; joiners block on the latch only after releasing mu.
func share(c *coalescer, key string, build func() int64) int64 {
	c.mu.Lock()
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		<-f.done
		return f.val
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()
	f.val = build()
	c.mu.Lock()
	delete(c.flights, key)
	close(f.done)
	c.mu.Unlock()
	return f.val
}

// tenantSlot/router mirror the multi-tenant lifecycle protocol: the per-city
// open latch is installed and closed under the leaf router mutex, the
// database open and the evicted victim's close — device I/O — both run with
// nothing held, and waiters block on the latch only after releasing mu.
type tenantSlot struct {
	opening chan struct{}
	handle  int64
	pinned  bool
}

type router struct {
	mu    sync.Mutex // lockcheck:leaf
	slots map[string]*tenantSlot
}

// acquire opens a cold tenant behind its singleflight latch, closing an
// unpinned victim outside the lock to stay under the cap: all branches
// release the mutex at one point, then waiters block on the latch and the
// opener does its device I/O, both with nothing held.
func acquire(r *router, name, victim string, open func() int64, close_ func(int64)) int64 {
	for {
		r.mu.Lock()
		s := r.slots[name]
		if s.handle != 0 {
			h := s.handle
			s.pinned = true
			r.mu.Unlock()
			return h
		}
		wait := s.opening
		var latch chan struct{}
		var evicted int64
		if wait == nil {
			latch = make(chan struct{})
			s.opening = latch
			if v := r.slots[victim]; v != nil && v.handle != 0 && !v.pinned {
				evicted = v.handle
				v.handle = 0
			}
		}
		r.mu.Unlock()
		if wait != nil {
			<-wait
			continue
		}
		if evicted != 0 {
			close_(evicted)
		}
		h := open()
		r.mu.Lock()
		s.handle = h
		s.opening = nil
		s.pinned = true
		close(latch)
		r.mu.Unlock()
		return h
	}
}

// lookup is allocation-free through the whole scratch protocol: guarded
// growth, self-append, scalar copy-out, and failure paths that may
// allocate.
//
// hotpath — allocheck root for the negative corpus.
func lookup(s *rowScratch, vals []int64, n int) (int64, error) {
	if n < 0 || n >= len(vals) {
		return 0, fmt.Errorf("clean: row %d of %d", n, len(vals))
	}
	if cap(s.Arena)-len(s.Arena) < len(vals) {
		grown := make([]int64, len(s.Arena), len(s.Arena)+len(vals))
		copy(grown, s.Arena)
		s.Arena = grown
	}
	s.Arena = append(s.Arena, vals...)
	return s.Arena[len(s.Arena)-len(vals)+n], nil
}
