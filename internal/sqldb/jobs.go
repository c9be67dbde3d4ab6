package sqldb

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// RunJobs runs the jobs on up to workers goroutines (GOMAXPROCS when workers
// is not positive) and returns the first error in job order, once every job
// has finished. It runs the table loads of a build (core) and the decodes of
// an open (Open, BulkLoad). Jobs touch disjoint tables (each table owns its
// files and its vector-cache entry; the buffer pool underneath is one LRU
// under one mutex), so they need no coordination: job j reports into
// errs[j], which only the worker that ran it writes. A failed job does not
// stop the others — a job has no side effects outside its own table, and the
// first error fails the whole build or open anyway.
func RunJobs(workers int, jobs []func() error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(jobs))
	errs := make([]error, len(jobs))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for j := int(next.Add(1)) - 1; j < len(jobs); j = int(next.Add(1)) - 1 {
				errs[j] = jobs[j]()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
