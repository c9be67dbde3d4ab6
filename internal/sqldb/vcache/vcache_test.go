package vcache

import (
	"errors"
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
	if got := c.Resident(); got != 100 {
		t.Errorf("Resident = %d, want 100", got)
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

// TestEvictionSecondChance fills the cache, touches one table, and admits a
// new one: the clock must skip the recently-referenced table (clearing its
// bit) and evict the untouched one.
func TestEvictionSecondChance(t *testing.T) {
	c, met := newCache(250)
	a, b := c.Register(100), c.Register(100)
	if _, err := a.Materialize(func() (*Mat, error) { return mat(100), nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Materialize(func() (*Mat, error) { return mat(100), nil }); err != nil {
		t.Fatal(err)
	}
	// Touch a so its reference bit is set; b's bit was set at admission, so
	// age both by forcing one full clock sweep: clear via a tiny admission
	// that evicts nothing... instead, emulate steady state directly.
	a.ref.Store(true)
	b.ref.Store(false)
	d := c.Register(100)
	if _, err := d.Materialize(func() (*Mat, error) { return mat(100), nil }); err != nil {
		t.Fatal(err)
	}
	if a.Acquire() == nil {
		t.Error("recently-referenced table was evicted")
	}
	if b.mat.Load() != nil {
		t.Error("unreferenced table survived under budget pressure")
	}
	if d.Acquire() == nil {
		t.Error("newly admitted table not resident")
	}
	if got := met.Evictions.Load(); got != 1 {
		t.Errorf("Evictions = %d, want 1", got)
	}
	if got := c.Resident(); got != 200 {
		t.Errorf("Resident = %d, want 200", got)
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
	if len(c.entries) != 0 {
		t.Errorf("a declined table occupies %d ring slots", len(c.entries))
	}
	e := c.Register(50)
	if e == nil {
		t.Fatal("Register declined a table that fits the budget exactly")
	}
	if m, err := e.Materialize(func() (*Mat, error) { return mat(50), nil }); err != nil || m == nil {
		t.Fatalf("Materialize = %v, %v", m, err)
	}
	if got, d := c.Resident(), met.Declined.Load(); got != 50 || d != 1 {
		t.Errorf("Resident = %d, Declined = %d; want 50, 1", got, d)
	}
}

// TestMaterializeRejectsWrongSize: the budget was checked against the
// registered size, so vectors of any other size are refused, not charged.
func TestMaterializeRejectsWrongSize(t *testing.T) {
	c, _ := newCache(1000)
	e := c.Register(100)
	for _, built := range []int64{99, 101, 2000} {
		if m, err := e.Materialize(func() (*Mat, error) { return mat(built), nil }); err == nil || m != nil {
			t.Fatalf("Materialize of %d bytes on a 100-byte slot = %v, %v; want an error", built, m, err)
		}
	}
	if got := c.Resident(); got != 0 || e.Acquire() != nil {
		t.Errorf("a refused build left %d bytes resident", got)
	}
}

// TestDropIsPermanent: an invalidated entry serves nothing and never
// rebuilds, even when Drop races an in-flight materialization.
func TestDropIsPermanent(t *testing.T) {
	c, _ := newCache(1000)
	e := c.Register(100)
	if _, err := e.Materialize(func() (*Mat, error) { return mat(100), nil }); err != nil {
		t.Fatal(err)
	}
	e.Drop()
	if e.Acquire() != nil {
		t.Fatal("Acquire served a dropped entry")
	}
	if got := c.Resident(); got != 0 {
		t.Errorf("Resident after Drop = %d, want 0", got)
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
	if got := c.Resident(); got != 0 {
		t.Errorf("Resident = %d, want 0", got)
	}
}

// TestDropLeavesTheRing: a dropped entry gives its bytes back and leaves the
// clock ring, wherever the hand stands, and eviction keeps working over the
// survivors — registering and dropping tables forever must not grow the
// cache.
func TestDropLeavesTheRing(t *testing.T) {
	c, met := newCache(300)
	build := func() (*Mat, error) { return mat(100), nil }
	keep := c.Register(100)
	if _, err := keep.Materialize(build); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		var es []*Entry
		for i := 0; i < 3; i++ {
			e := c.Register(100)
			if _, err := e.Materialize(build); err != nil {
				t.Fatal(err)
			}
			es = append(es, e)
		}
		// Four 100-byte tables against a 300-byte budget: the hand moved.
		for _, i := range []int{1, 0, 2} {
			es[i].Drop()
		}
		if len(c.entries) != 1 || c.entries[0] != keep || c.hand != 0 {
			t.Fatalf("round %d: ring = %d entries, hand %d; want the one kept entry, hand 0", round, len(c.entries), c.hand)
		}
		if _, err := keep.Materialize(build); err != nil {
			t.Fatal(err)
		}
		if got, gauge := c.Resident(), met.ResidentBytes.Load(); got != 100 || gauge != 100 {
			t.Fatalf("round %d: resident = %d (gauge %d), want 100", round, got, gauge)
		}
	}
	keep.Drop()
	if len(c.entries) != 0 || c.Resident() != 0 {
		t.Fatalf("empty cache holds %d entries, %d bytes", len(c.entries), c.Resident())
	}
	e := c.Register(100)
	if m, err := e.Materialize(build); err != nil || m == nil {
		t.Fatalf("Materialize after the ring emptied = %v, %v", m, err)
	}
}

// TestDropAllReMaterializes: DropAll (cold-start emulation) evicts every
// table but leaves the entries registered; the next miss rebuilds.
func TestDropAllReMaterializes(t *testing.T) {
	c, met := newCache(1000)
	a, b := c.Register(100), c.Register(100)
	for _, e := range []*Entry{a, b} {
		if _, err := e.Materialize(func() (*Mat, error) { return mat(100), nil }); err != nil {
			t.Fatal(err)
		}
	}
	c.DropAll()
	if got := c.Resident(); got != 0 {
		t.Fatalf("Resident after DropAll = %d, want 0", got)
	}
	if got := met.ResidentBytes.Load(); got != 0 {
		t.Fatalf("ResidentBytes after DropAll = %d, want 0", got)
	}
	if a.Acquire() != nil || b.Acquire() != nil {
		t.Fatal("Acquire served an evicted table after DropAll")
	}
	m, err := a.Materialize(func() (*Mat, error) { return mat(100), nil })
	if err != nil || m == nil {
		t.Fatalf("re-materialize after DropAll = %v, %v", m, err)
	}
	if got := c.Resident(); got != 100 {
		t.Errorf("Resident = %d, want 100", got)
	}
}

// TestBudgetAccountingAcrossEvictions drives admissions past the budget many
// times and checks the byte account never leaks.
func TestBudgetAccountingAcrossEvictions(t *testing.T) {
	c, met := newCache(300)
	entries := make([]*Entry, 8)
	for i := range entries {
		entries[i] = c.Register(100)
	}
	for round := 0; round < 5; round++ {
		for _, e := range entries {
			if _, err := e.Materialize(func() (*Mat, error) { return mat(100), nil }); err != nil {
				t.Fatal(err)
			}
		}
	}
	resident := c.Resident()
	if resident > 300 {
		t.Fatalf("Resident = %d exceeds budget 300", resident)
	}
	if got := met.ResidentBytes.Load(); got != resident {
		t.Fatalf("gauge %d disagrees with account %d", got, resident)
	}
	var sum int64
	for _, e := range entries {
		if e.mat.Load() != nil {
			sum += e.size
		}
	}
	if sum != resident {
		t.Fatalf("per-entry sizes total %d, account says %d", sum, resident)
	}
}
