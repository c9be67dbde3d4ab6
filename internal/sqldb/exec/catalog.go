package exec

import (
	"ptldb/internal/obs"
	"ptldb/internal/sqldb/sqltypes"
)

// Catalog resolves base-table names for the executor. It is implemented by
// package sqldb.
type Catalog interface {
	// Table returns the table named name (case-insensitive), or false.
	Table(name string) (Table, bool)
}

// MetricsSource is an optional Catalog extension exposing the executor
// counters both execution paths feed (label tuples merged; the storage layer
// feeds rows scanned itself). A catalog without it runs uninstrumented.
type MetricsSource interface {
	ExecMetrics() *obs.ExecMetrics
}

// execMetrics returns cat's executor counters, or nil when cat is not a
// MetricsSource. Callers must nil-check; the assertion itself is one word
// of work per query and never allocates.
func execMetrics(cat Catalog) *obs.ExecMetrics {
	if ms, ok := cat.(MetricsSource); ok {
		return ms.ExecMetrics()
	}
	return nil
}

// Table is the executor's view of one stored table.
type Table interface {
	// Columns returns the column names in storage order.
	Columns() []string
	// PKCols returns the indices of the primary-key columns (at most two,
	// in key order), or nil when the table has no primary key.
	PKCols() []int
	// LookupPK fetches the row with the given PK values.
	LookupPK(key []int64) (sqltypes.Row, bool, error)
	// Scan calls fn for every row in primary-key order.
	Scan(fn func(sqltypes.Row) error) error
}

// RunOrdered is an optional Table extension. RunOrder returns the positions
// of three BIGINT[] columns (g, a, b), or nil: in every stored row the arrays
// have equal length, g is non-decreasing, and within equal g both a and b are
// non-decreasing. The table vouches for it (sqldb validates every row it
// writes); the fused executor trusts it without looking.
type RunOrdered interface {
	RunOrder() []int
}

// TargetBounded is an optional Table extension. TargetBound returns the
// positions of the BIGINT[] columns that hold target ids, their exclusive
// bound and a count, or nil, 0 and 0: every element of those columns in every
// stored row is in [0, bound), and when count is positive the stored rows hold
// at most count distinct ids. The table vouches for it as it does for its run
// order; the fused executor sizes its per-target array by the bound, and the
// EA one-to-many kernel stops its sweep by the count.
type TargetBounded interface {
	TargetBound() (cols []int, bound, count int)
}

// Floored is an optional Table extension. Floor returns the position of a
// BIGINT key column, a width >= 1 and the positions of BIGINT[] columns, or -1,
// 0 and nil: every element of those columns in every stored row is at least
// the row's key times the width. The table vouches for it as it does for its
// run order; the EA kNN and one-to-many kernels stop their sweep by it.
type Floored interface {
	Floor() (key int, width int64, cols []int)
}

// RowScratch holds reusable row-decoding buffers for ScratchTable calls.
// A scratch belongs to one query execution; it must not be shared across
// goroutines.
type RowScratch struct {
	Buf   []byte       // encoded-row payload buffer
	Row   sqltypes.Row // decoded value headers
	Arena []int64      // backing store for decoded BIGINT[] values
	// Pos is where the last LookupPKScratch through this scratch ended in its
	// table's key directory — the row found, or the insertion point of a miss.
	// The next lookup starts its search there. It is a hint the search
	// validates by comparison: one scratch serves several tables in turn, and
	// any value, of any table or none, leaves every answer the same.
	Pos int
}

// ScratchTable is an optional Table extension the fused executor uses to
// run the label hot path without per-row allocations.
type ScratchTable interface {
	// LookupPKScratch is LookupPK decoding into s's buffers. The returned
	// row (aliasing s.Row) is only valid until the next call with the same
	// scratch. Array values are carved out of s.Arena, which is append-only
	// for the scratch's lifetime, so they STAY valid across calls — the
	// fused operators retain label arrays for the whole query.
	LookupPKScratch(key []int64, s *RowScratch) (sqltypes.Row, bool, error)
	// ScanScratch is Scan reusing s for every row: the callback row, its
	// arrays and the arena are all recycled between rows, so fn must not
	// retain any of them past its return.
	ScanScratch(s *RowScratch, fn func(sqltypes.Row) error) error
}

// lookupPKScratch uses the scratch fast path when tbl supports it.
func lookupPKScratch(tbl Table, key []int64, s *RowScratch) (sqltypes.Row, bool, error) {
	if st, ok := tbl.(ScratchTable); ok {
		return st.LookupPKScratch(key, s)
	}
	return tbl.LookupPK(key)
}

// scanScratch uses the scratch fast path when tbl supports it.
func scanScratch(tbl Table, s *RowScratch, fn func(sqltypes.Row) error) error {
	if st, ok := tbl.(ScratchTable); ok {
		return st.ScanScratch(s, fn)
	}
	return tbl.Scan(fn)
}
