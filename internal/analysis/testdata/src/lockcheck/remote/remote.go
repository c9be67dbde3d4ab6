// Package remote holds the helpers the lockcheck corpus calls from another
// package: each does, one call deep, a thing a held leaf mutex forbids.
package remote

import "sync"

// Cache has a leaf mutex of its own.
type Cache struct {
	mu   sync.Mutex // lockcheck:leaf
	hits int
}

// Touch locks the cache's leaf mutex.
func (c *Cache) Touch() {
	c.mu.Lock()
	c.hits++
	c.mu.Unlock()
}

// TouchTwice deadlocks on its own mutex through Touch: a finding of this
// package, matched by a want of this package.
func (c *Cache) TouchTwice() {
	c.mu.Lock()
	c.Touch() // want `call to Touch, which may acquire an annotated mutex, while leaf mutex c\.mu is held`
	c.mu.Unlock()
}

// Await blocks until ready is closed.
func Await(ready chan struct{}) {
	<-ready
}

type device struct{}

func (device) ReadAt(b []byte, off int64) (int, error) { return len(b), nil }

// File reads its pages from a device.
type File struct {
	dev device
}

// Load reads one page.
func (f *File) Load(page int64, buf []byte) error {
	_, err := f.dev.ReadAt(buf, page*int64(len(buf)))
	return err
}

// Drain waits for every job of the group to finish.
func Drain(wg *sync.WaitGroup) {
	wg.Wait()
}
