package vcache

import (
	"fmt"
	"sync"
	"testing"

	"ptldb/internal/obs"
)

func newCache(budget int64) (*Cache, *obs.VCacheMetrics) {
	met := &obs.VCacheMetrics{}
	return New(budget, met), met
}

func TestColArray(t *testing.T) {
	// Two rows of two array columns, row-major: ([1 2], []) and ([3 4 5], [6]).
	elems, starts := []int64{1, 2, 3, 4, 5, 6}, []int32{0, 2, 2, 5, 6}
	xs := Col{Ints: elems, Starts: starts, Stride: 2}
	ys := Col{Ints: elems, Starts: starts[1:], Stride: 2}
	for _, c := range []struct {
		col  *Col
		row  int
		want []int64
	}{{&xs, 0, []int64{1, 2}}, {&ys, 0, nil}, {&xs, 1, []int64{3, 4, 5}}, {&ys, 1, []int64{6}}} {
		if got := c.col.Array(c.row); fmt.Sprint(got) != fmt.Sprint(c.want) || len(got) != len(c.want) {
			t.Fatalf("Array(%d) = %v, want %v", c.row, got, c.want)
		}
	}
	// The full-slice expression must cap the view so an append cannot
	// clobber the next array's elements.
	_ = append(xs.Array(1), 99)
	if elems[5] != 6 {
		t.Fatal("append through an Array view overwrote the cached vector")
	}
}

// TestRegisterDeclinesTooBig: a table whose vectors exceed the whole budget
// is declined — the decision takes no decode and no device read — while one
// that exactly fills the budget is admitted.
func TestRegisterDeclinesTooBig(t *testing.T) {
	c, met := newCache(50)
	if c.Register(51) {
		t.Fatal("Register admitted a table larger than the whole budget")
	}
	if got := met.Declined.Load(); got != 1 {
		t.Errorf("Declined = %d, want 1", got)
	}
	if got := reserved(c); got != 0 {
		t.Errorf("a declined table reserved %d bytes", got)
	}
	if !c.Register(50) {
		t.Fatal("Register declined a table that fits the budget exactly")
	}
	if got, d, free := met.ResidentBytes.Load(), met.Declined.Load(), c.Free(); got != 50 || d != 1 || free != 0 {
		t.Errorf("Resident = %d, Declined = %d, Free = %d; want 50, 1, 0", got, d, free)
	}
}

// reserved reads the cache's account of admitted shares.
func reserved(c *Cache) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reserved
}

// TestRegisterReservesShares: admission is decided at Register, in the order
// tables register. An admitted table's share is reserved and counted
// resident at once; the first table that does not fit what is left is
// declined, and a later, smaller one that does fit is still admitted.
func TestRegisterReservesShares(t *testing.T) {
	c, met := newCache(250)
	if !c.Register(100) || !c.Register(100) {
		t.Fatal("a table that fits what is left of the budget was declined")
	}
	if got, res := reserved(c), met.ResidentBytes.Load(); got != 200 || res != 200 {
		t.Fatalf("reserved %d, resident %d; want 200, 200", got, res)
	}
	if c.Register(100) {
		t.Fatal("admitted a table past the budget the earlier tables reserved")
	}
	if got := met.Declined.Load(); got != 1 {
		t.Errorf("Declined = %d, want 1", got)
	}
	if !c.Register(50) {
		t.Fatal("declined a table that fits the 50 bytes left")
	}
	if got, res, ev := reserved(c), met.ResidentBytes.Load(), met.Evictions.Load(); got != 250 || res != 250 || ev != 0 {
		t.Errorf("reserved %d, resident %d, %d evictions; want 250, 250, 0", got, res, ev)
	}
}

// TestReleaseReturnsShare: a released share returns to the budget and leaves
// the resident bytes, so the next table to register may take it, and only
// it: the other shares stay reserved.
func TestReleaseReturnsShare(t *testing.T) {
	c, met := newCache(200)
	c.Register(100)
	c.Register(100)
	c.Release(100)
	if got, res := reserved(c), met.ResidentBytes.Load(); got != 100 || res != 100 {
		t.Fatalf("after a Release: reserved %d, resident %d; want 100, 100", got, res)
	}
	if !c.Register(100) {
		t.Fatal("the released share was not returned")
	}
	if c.Register(1) {
		t.Fatal("a Release returned more than its share")
	}
	c.Release(100)
	c.Release(100)
	if got, res, free := reserved(c), met.ResidentBytes.Load(), c.Free(); got != 0 || res != 0 || free != 200 {
		t.Fatalf("every share released, yet reserved %d, resident %d, free %d", got, res, free)
	}
}

// TestConcurrentAdmissionWithinBudget registers and releases tables from many
// goroutines against a budget that holds only some of them. Run under -race:
// the shares reserved and the bytes resident never exceed the budget at any
// observed instant, and the accounts return to zero once every table is
// released.
func TestConcurrentAdmissionWithinBudget(t *testing.T) {
	const budget = 800
	c, met := newCache(budget)
	stop := make(chan struct{})
	watched := make(chan error, 1)
	go func() {
		defer close(watched)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if res, got := met.ResidentBytes.Load(), reserved(c); res < 0 || res > budget || got > budget {
				watched <- fmt.Errorf("resident %d, reserved %d against a %d budget", res, got, budget)
				return
			}
		}
	}()
	// Each worker registers its next table before it releases the last one,
	// so one worker alone overruns the budget with its largest pair.
	var wg sync.WaitGroup
	var admitted, declined [8]int
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var prev int64
			for round := 0; round < 200; round++ {
				size := int64(100 * (1 + (w+round)%5))
				ok := c.Register(size)
				if prev != 0 {
					c.Release(prev)
				}
				prev = 0
				if ok {
					prev = size
					admitted[w]++
				} else {
					declined[w]++
				}
			}
			if prev != 0 {
				c.Release(prev)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if err := <-watched; err != nil {
		t.Fatal(err)
	}
	if res, got := met.ResidentBytes.Load(), reserved(c); res != 0 || got != 0 {
		t.Fatalf("every table released, yet resident %d, reserved %d", res, got)
	}
	a, d := 0, 0
	for w := range admitted {
		a, d = a+admitted[w], d+declined[w]
	}
	if a == 0 || d == 0 || uint64(d) != met.Declined.Load() {
		t.Fatalf("admitted %d, declined %d (counted %d): the churn did not exercise both outcomes",
			a, d, met.Declined.Load())
	}
}
