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

func TestAcquireMissThenHit(t *testing.T) {
	c, met := newCache(1000)
	e := c.Register(100)
	if m := e.Acquire(); m != nil {
		t.Fatal("Acquire on empty entry returned a Mat")
	}
	built, err := e.Materialize(func() (*Mat, error) { return mat(100), nil })
	if err != nil || built == nil {
		t.Fatalf("Materialize = %v, %v", built, err)
	}
	if m := e.Acquire(); m != built {
		t.Fatalf("Acquire = %p, want %p", m, built)
	}
	if h, ms := met.Hits.Load(), met.Misses.Load(); h != 1 || ms != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", h, ms)
	}
	if got := met.ResidentBytes.Load(); got != 100 {
		t.Errorf("ResidentBytes = %d, want 100", got)
	}
}

func TestColArray(t *testing.T) {
	c := Col{Ints: []int64{1, 2, 3, 4, 5}, Starts: []int32{0, 2, 2, 5}}
	if got := c.Array(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Array(0) = %v", got)
	}
	if got := c.Array(1); len(got) != 0 {
		t.Fatalf("Array(1) = %v, want empty", got)
	}
	// The full-slice expression must cap the view so an append cannot
	// clobber the next row's elements.
	v := c.Array(0)
	_ = append(v, 99)
	if c.Ints[2] != 3 {
		t.Fatal("append through an Array view overwrote the cached vector")
	}
}

// TestMaterializeSingleflight launches many concurrent missers: exactly one
// build must run and every caller must get the same Mat.
func TestMaterializeSingleflight(t *testing.T) {
	c, met := newCache(1000)
	e := c.Register(100)
	var builds atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]*Mat, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			m, err := e.Materialize(func() (*Mat, error) {
				builds.Add(1)
				return mat(100), nil
			})
			if err != nil {
				t.Errorf("Materialize: %v", err)
			}
			results[i] = m
		}(i)
	}
	close(gate)
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Errorf("build ran %d times, want 1", got)
	}
	for i, m := range results {
		if m == nil || m != results[0] {
			t.Fatalf("caller %d got %p, caller 0 got %p", i, m, results[0])
		}
	}
	if got := met.Materializations.Load(); got != 1 {
		t.Errorf("Materializations = %d, want 1", got)
	}
}

// TestMaterializeErrorRetries: a failed build must not latch permanently —
// the next caller retries.
func TestMaterializeErrorRetries(t *testing.T) {
	c, _ := newCache(1000)
	e := c.Register(100)
	boom := errors.New("device gone")
	if _, err := e.Materialize(func() (*Mat, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	m, err := e.Materialize(func() (*Mat, error) { return mat(100), nil })
	if err != nil || m == nil {
		t.Fatalf("retry after error = %v, %v", m, err)
	}
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
	if m, err := e.Materialize(func() (*Mat, error) { return mat(50), nil }); err != nil || m == nil {
		t.Fatalf("Materialize = %v, %v", m, err)
	}
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
		if m, err := e.Materialize(func() (*Mat, error) { return mat(built), nil }); err == nil || m != nil {
			t.Fatalf("Materialize of %d bytes on a 100-byte slot = %v, %v; want an error", built, m, err)
		}
	}
	if got := met.ResidentBytes.Load(); got != 0 || e.Acquire() != nil {
		t.Errorf("a refused build left %d bytes resident", got)
	}
}

// TestDropIsPermanent: an invalidated entry serves nothing and never
// rebuilds, even when Drop races an in-flight materialization.
func TestDropIsPermanent(t *testing.T) {
	c, met := newCache(1000)
	e := c.Register(100)
	if _, err := e.Materialize(func() (*Mat, error) { return mat(100), nil }); err != nil {
		t.Fatal(err)
	}
	e.Drop()
	if e.Acquire() != nil {
		t.Fatal("Acquire served a dropped entry")
	}
	if got := met.ResidentBytes.Load(); got != 0 {
		t.Errorf("ResidentBytes after Drop = %d, want 0", got)
	}
	m, err := e.Materialize(func() (*Mat, error) {
		t.Error("build ran on a dropped entry")
		return mat(100), nil
	})
	if err != nil || m != nil {
		t.Fatalf("Materialize on dropped entry = %v, %v; want nil, nil", m, err)
	}

	// Race: the drop lands while a build is in flight; the stale vectors
	// must be discarded, not installed.
	e2 := c.Register(100)
	started := make(chan struct{})
	proceed := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		m, err := e2.Materialize(func() (*Mat, error) {
			close(started)
			<-proceed
			return mat(100), nil
		})
		if err != nil || m != nil {
			t.Errorf("racing Materialize = %v, %v; want nil, nil", m, err)
		}
	}()
	<-started
	e2.Drop()
	close(proceed)
	<-done
	if e2.mat.Load() != nil {
		t.Fatal("stale vectors installed after Drop")
	}
	if got := met.ResidentBytes.Load(); got != 0 {
		t.Errorf("ResidentBytes = %d, want 0", got)
	}
}

// reserved reads the cache's account of admitted shares.
func reserved(c *Cache) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reserved
}

// TestRegisterReservesShares: admission is decided at Register, in the order
// tables register. A share is reserved whether or not its table ever
// materializes; the first table that does not fit what is left is declined,
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
		if _, err := e.Materialize(func() (*Mat, error) { return mat(e.size), nil }); err != nil {
			t.Fatal(err)
		}
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
	if _, err := a.Materialize(func() (*Mat, error) { return mat(100), nil }); err != nil {
		t.Fatal(err)
	}
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

// TestUnloadKeepsShare: Unload (cold-start emulation) unpublishes a table's
// vectors and keeps its share — no other table can take it meanwhile — and
// the next miss rebuilds them.
func TestUnloadKeepsShare(t *testing.T) {
	c, met := newCache(200)
	a, b := c.Register(100), c.Register(100)
	for _, e := range []*Entry{a, b} {
		if _, err := e.Materialize(func() (*Mat, error) { return mat(100), nil }); err != nil {
			t.Fatal(err)
		}
	}
	a.Unload()
	b.Unload()
	b.Unload()
	if got, res := reserved(c), met.ResidentBytes.Load(); got != 200 || res != 0 {
		t.Fatalf("after Unload: reserved %d, resident %d; want 200, 0", got, res)
	}
	if a.Acquire() != nil || b.Acquire() != nil {
		t.Fatal("Acquire served an unloaded table")
	}
	if e := c.Register(1); e != nil {
		t.Fatal("an unloaded table's share was handed to another table")
	}
	m, err := a.Materialize(func() (*Mat, error) { return mat(100), nil })
	if err != nil || m == nil {
		t.Fatalf("re-materialize after Unload = %v, %v", m, err)
	}
	if got, n := met.ResidentBytes.Load(), met.Materializations.Load(); got != 100 || n != 3 {
		t.Errorf("ResidentBytes = %d, Materializations = %d; want 100, 3", got, n)
	}
}

// TestConcurrentAdmissionWithinBudget registers, materializes, unloads and
// drops tables from many goroutines against a budget that holds only some of
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
				for i := 0; i < 1+round%3; i++ {
					m, err := e.Materialize(func() (*Mat, error) { return mat(size), nil })
					if err != nil || m == nil {
						t.Errorf("Materialize = %v, %v", m, err)
						return
					}
					if round%4 == 0 {
						e.Unload()
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
