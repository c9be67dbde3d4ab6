package serve

// admission.go is the in-flight cap: a buffered-channel semaphore bounding
// concurrent store executions. Acquisition is non-blocking — a saturated
// server answers 503 with Retry-After immediately instead of queueing
// requests unboundedly (under open-loop overload an unbounded queue turns
// every latency percentile into the test duration).

type semaphore struct {
	slots chan struct{}
}

func newSemaphore(n int) *semaphore {
	return &semaphore{slots: make(chan struct{}, n)}
}

// tryAcquire claims a slot without blocking.
func (s *semaphore) tryAcquire() bool {
	select {
	case s.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// release returns a slot. The receive never blocks: every release pairs
// with one successful tryAcquire on the same buffered channel.
func (s *semaphore) release() {
	<-s.slots
}
