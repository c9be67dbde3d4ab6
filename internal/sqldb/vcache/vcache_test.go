package vcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ptldb/internal/obs"
	"ptldb/internal/sqldb/storage"
)

// mat builds a one-column Mat with the given budget charge.
func mat(bytes int64) *Mat {
	return &Mat{
		Keys:  []storage.Key{{1}, {2}},
		Cols:  []Col{{Ints: []int64{10, 20}}},
		Bytes: bytes,
	}
}

func newCache(budget int64) (*Cache, *obs.VCacheMetrics) {
	met := &obs.VCacheMetrics{}
	return New(budget, met), met
}

// publish publishes m on e, failing the test on an error.
func publish(t *testing.T, e *Entry, m *Mat) {
	t.Helper()
	if err := e.Publish(func() (*Mat, error) { return m, nil }); err != nil {
		t.Fatalf("Publish: %v", err)
	}
}

// TestAcquireAfterPublish: what Publish built is what every Acquire returns,
// each one a hit; there is no miss to count.
func TestAcquireAfterPublish(t *testing.T) {
	c, met := newCache(1000)
	e := c.Register(100)
	built := mat(100)
	publish(t, e, built)
	for range 2 {
		if m := e.Acquire(); m != built {
			t.Fatalf("Acquire = %p, want %p", m, built)
		}
	}
	if h, ms := met.Hits.Load(), met.Misses.Load(); h != 2 || ms != 0 {
		t.Errorf("hits/misses = %d/%d, want 2/0", h, ms)
	}
	if got, n, timed := met.ResidentBytes.Load(), met.Materializations.Load(), met.Materialize.Snapshot().Count; got != 100 || n != 1 || timed != 1 {
		t.Errorf("ResidentBytes = %d, Materializations = %d, timed builds = %d; want 100, 1, 1", got, n, timed)
	}
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

// TestPublishOnce: an entry is published once. Sixteen goroutines publish at
// once; exactly one succeeds, every other gets an error, and the winner's
// vectors are the ones resident and served.
func TestPublishOnce(t *testing.T) {
	c, met := newCache(1000)
	e := c.Register(100)
	gate := make(chan struct{})
	var wg sync.WaitGroup
	var won atomic.Int64
	mats := make([]*Mat, 16)
	errs := make([]error, len(mats))
	for i := range mats {
		mats[i] = mat(100)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			if errs[i] = e.Publish(func() (*Mat, error) { return mats[i], nil }); errs[i] == nil {
				won.Add(1)
			}
		}(i)
	}
	close(gate)
	wg.Wait()
	if won.Load() != 1 {
		t.Fatalf("%d publishes succeeded, want exactly 1: %v", won.Load(), errs)
	}
	for i, err := range errs {
		if err == nil && e.Acquire() != mats[i] {
			t.Errorf("publisher %d succeeded, but Acquire serves another Mat", i)
		}
	}
	if got, n := met.ResidentBytes.Load(), met.Materializations.Load(); got != 100 || n != 1 {
		t.Errorf("ResidentBytes = %d, Materializations = %d; want 100, 1", got, n)
	}
}

// TestMaterializeErrorRetries: a failed build publishes nothing and counts
// nothing — the entry stays unpublished — and a later build may publish.
func TestMaterializeErrorRetries(t *testing.T) {
	c, met := newCache(1000)
	e := c.Register(100)
	boom := errors.New("malformed row")
	if err := e.Publish(func() (*Mat, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if e.mat.Load() != nil || met.ResidentBytes.Load() != 0 || met.Materializations.Load() != 0 {
		t.Fatalf("a failed build published: resident %d, %d materializations", met.ResidentBytes.Load(), met.Materializations.Load())
	}
	publish(t, e, mat(100))
}

// TestRegisterDeclinesTooBig: a table whose vectors exceed the whole budget
// gets no slot — the decision takes no build and no device read — while one
// that exactly fills the budget is admitted.
func TestRegisterDeclinesTooBig(t *testing.T) {
	c, met := newCache(50)
	if e := c.Register(51); e != nil {
		t.Fatal("Register admitted a table larger than the whole budget")
	}
	if got := met.Declined.Load(); got != 1 {
		t.Errorf("Declined = %d, want 1", got)
	}
	if got := reserved(c); got != 0 {
		t.Errorf("a declined table reserved %d bytes", got)
	}
	e := c.Register(50)
	if e == nil {
		t.Fatal("Register declined a table that fits the budget exactly")
	}
	publish(t, e, mat(50))
	if got, d := met.ResidentBytes.Load(), met.Declined.Load(); got != 50 || d != 1 {
		t.Errorf("Resident = %d, Declined = %d; want 50, 1", got, d)
	}
}

// TestMaterializeRejectsWrongSize: the budget was checked against the
// registered size, so vectors of any other size are refused, not charged.
func TestMaterializeRejectsWrongSize(t *testing.T) {
	c, met := newCache(1000)
	e := c.Register(100)
	for _, built := range []int64{99, 101, 2000} {
		if err := e.Publish(func() (*Mat, error) { return mat(built), nil }); err == nil {
			t.Fatalf("Publish of %d bytes on a 100-byte slot succeeded; want an error", built)
		}
	}
	if got := met.ResidentBytes.Load(); got != 0 || e.Acquire() != nil {
		t.Errorf("a refused build left %d bytes resident", got)
	}
}

// TestDropIsPermanent: a dropped entry serves nothing and leaves the
// resident bytes.
func TestDropIsPermanent(t *testing.T) {
	c, met := newCache(1000)
	e := c.Register(100)
	publish(t, e, mat(100))
	e.Drop()
	if e.mat.Load() != nil {
		t.Fatal("a dropped entry still holds its vectors")
	}
	if got := met.ResidentBytes.Load(); got != 0 {
		t.Errorf("ResidentBytes after Drop = %d, want 0", got)
	}
}

// reserved reads the cache's account of admitted shares.
func reserved(c *Cache) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reserved
}

// TestRegisterReservesShares: admission is decided at Register, in the order
// tables register. A share is reserved before its table is published; the
// first table that does not fit what is left is declined,
// and a later, smaller one that does fit is still admitted.
func TestRegisterReservesShares(t *testing.T) {
	c, met := newCache(250)
	a, b := c.Register(100), c.Register(100)
	if a == nil || b == nil {
		t.Fatal("a table that fits what is left of the budget was declined")
	}
	if got, res := reserved(c), met.ResidentBytes.Load(); got != 200 || res != 0 {
		t.Fatalf("reserved %d, resident %d before any materialization; want 200, 0", got, res)
	}
	if e := c.Register(100); e != nil {
		t.Fatal("admitted a table past the budget the earlier tables reserved")
	}
	if got := met.Declined.Load(); got != 1 {
		t.Errorf("Declined = %d, want 1", got)
	}
	d := c.Register(50)
	if d == nil {
		t.Fatal("declined a table that fits the 50 bytes left")
	}
	for _, e := range []*Entry{a, b, d} {
		publish(t, e, mat(e.size))
	}
	for i, e := range []*Entry{a, b, d} {
		if e.Acquire() == nil {
			t.Errorf("admitted table %d is not resident", i)
		}
	}
	if got, res, ev := reserved(c), met.ResidentBytes.Load(), met.Evictions.Load(); got != 250 || res != 250 || ev != 0 {
		t.Errorf("reserved %d, resident %d, %d evictions; want 250, 250, 0", got, res, ev)
	}
}

// TestDropReturnsShareOnce: a dropped table's share returns to the budget, so
// the next table to register may take it, and dropping the entry again — a
// BulkLoad whose open failed, then DropTable — returns nothing more.
func TestDropReturnsShareOnce(t *testing.T) {
	c, met := newCache(200)
	a, b := c.Register(100), c.Register(100)
	publish(t, a, mat(100))
	a.Drop()
	a.Drop()
	if got, res := reserved(c), met.ResidentBytes.Load(); got != 100 || res != 0 {
		t.Fatalf("after two Drops: reserved %d, resident %d; want 100, 0", got, res)
	}
	if e := c.Register(100); e == nil {
		t.Fatal("the dropped table's share was not returned")
	}
	if e := c.Register(1); e != nil {
		t.Fatal("a second Drop returned the share again")
	}
	b.Drop()
	if got := reserved(c); got != 100 {
		t.Fatalf("reserved %d, want 100", got)
	}
}

// TestConcurrentAdmissionWithinBudget registers, publishes and drops tables from many goroutines against a budget that holds only some of
// them. Run under -race: the shares reserved and the bytes resident never
// exceed the budget at any observed instant, and the accounts return to zero
// once every table is dropped.
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
	// Each worker registers its next table before it drops the last one, so
	// one worker alone overruns the budget with its largest pair.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var prev *Entry
			for round := 0; round < 200; round++ {
				size := int64(100 * (1 + (w+round)%5))
				e := c.Register(size)
				if prev != nil {
					prev.Drop()
				}
				if prev = e; e == nil {
					continue
				}
				if round%4 != 0 { // some tables are dropped unpublished
					if err := e.Publish(func() (*Mat, error) { return mat(size), nil }); err != nil {
						t.Errorf("Publish: %v", err)
						return
					}
				}
			}
			if prev != nil {
				prev.Drop()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if err := <-watched; err != nil {
		t.Fatal(err)
	}
	if res, got := met.ResidentBytes.Load(), reserved(c); res != 0 || got != 0 {
		t.Fatalf("every table dropped, yet resident %d, reserved %d", res, got)
	}
	if met.Declined.Load() == 0 || met.Materializations.Load() == 0 {
		t.Fatalf("declined %d, materialized %d: the churn did not exercise both outcomes",
			met.Declined.Load(), met.Materializations.Load())
	}
}
