package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// errCollector gathers the first error reported by a group of table-load
// goroutines.
type errCollector struct {
	// mu guards err only; the loads do all their work before reporting.
	mu  sync.Mutex // lockcheck:shard
	err error
}

func (c *errCollector) add(err error) {
	if err == nil {
		return
	}
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

func (c *errCollector) first() error {
	c.mu.Lock()
	err := c.err
	c.mu.Unlock()
	return err
}

// runJobs runs the jobs on up to workers goroutines and returns the first
// error. Jobs touch disjoint tables (each table owns its files; the buffer
// pool underneath is sharded and safe for concurrent use), so they need no coordination beyond error collection. A failed job
// does not stop the others — table loads have no side effects outside their
// own table, and the first error aborts the whole build anyway.
func runJobs(workers int, jobs []func() error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for _, job := range jobs {
			if err := job(); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next atomic.Int64
		ec   errCollector
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(jobs) {
					return
				}
				ec.add(jobs[j]())
			}
		}()
	}
	wg.Wait()
	return ec.first()
}
