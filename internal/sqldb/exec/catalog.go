package exec

import (
	"ptldb/internal/obs"
	"ptldb/internal/sqldb/sqltypes"
)

// Catalog resolves base-table names for the executor and carries the
// counters both execution paths feed. It is implemented by package sqldb. The
// general executor asks it for a table on every run; a fused plan asks once,
// when Fuse binds the plan's two tables.
type Catalog interface {
	// Table returns the table named name (case-insensitive), or false.
	Table(name string) (Table, bool)
	// ExecMetrics returns the executor counters: label tuples merged (the
	// storage layer feeds rows scanned itself).
	ExecMetrics() *obs.ExecMetrics
}

// Table is the executor's view of one stored table: its layout, what it
// declares about its rows, and two ways to read them — into buffers of the
// caller's own for the general executor, into a reusable RowScratch for the
// fused kernels.
type Table interface {
	// Columns returns the column names in storage order.
	Columns() []string
	// PKCols returns the indices of the primary-key columns (at most two,
	// in key order), or nil when the table has no primary key.
	PKCols() []int
	// LookupPK fetches the row with the given PK values, every array value
	// a plain INT[]: the general executor's row view.
	LookupPK(key []int64) (sqltypes.Row, bool, error)
	// Scan calls fn for every row in primary-key order, in LookupPK's view.
	Scan(fn func(sqltypes.Row) error) error
	// LookupPKScratch is LookupPK decoding into s's buffers. The returned
	// row (aliasing s.Row) is only valid until the next call with the same
	// scratch. Array values are carved out of s.Arena, which is append-only
	// for the scratch's lifetime, so they STAY valid across calls — the
	// fused operators retain label arrays for the whole query. Unlike
	// LookupPK's row, it serves the leading column of the declared run
	// order (a label's hubs) in its run form, an sqltypes.IntRuns value —
	// the run values, then the run ends, which ascend strictly to the
	// length of the other two run-order columns — and the fused kernels
	// read no other form.
	LookupPKScratch(key []int64, s *RowScratch) (sqltypes.Row, bool, error)
	// ScanScratch is Scan reusing s for every row: the callback row, its
	// arrays and the arena are all recycled between rows, so fn must not
	// retain any of them past its return. A run-order column comes in its
	// run form, as LookupPKScratch's does.
	ScanScratch(s *RowScratch, fn func(sqltypes.Row) error) error
	// Resident reports whether the scratch reads serve the table from
	// resident decoded vectors rather than from its segment. EXPLAIN names
	// the table's access-path operator after it.
	Resident() bool

	// The declarations below are vouched for by the table (sqldb validates
	// every row it writes); the fused executor trusts them without looking.

	// RunOrder returns the positions of three INT[] columns (g, a, b), or
	// nil: in every stored row the arrays have equal length, g is
	// non-decreasing, b is never below a, and within equal g a ascends
	// strictly and b is non-decreasing.
	RunOrder() []int
	// TargetBound returns the positions of the INT[] columns that hold
	// target ids, their exclusive bound and a count, or nil, 0 and 0: every
	// element of those columns in every stored row is in [0, bound), and when
	// count is positive the stored rows hold at most count distinct ids. The
	// fused executor sizes its per-target array by the bound, and the EA
	// one-to-many kernel stops its sweep by the count.
	TargetBound() (cols []int, bound, count int)
	// Floor returns the position of a BIGINT key column, a width >= 1 and the
	// positions of INT[] columns, or -1, 0 and nil: every element of those
	// columns in every stored row is at least the row's key times the width.
	// The EA kNN and one-to-many kernels stop their sweep by it.
	Floor() (key int, width int64, cols []int)
}

// RowScratch holds reusable row-decoding buffers for the Table scratch reads.
// A scratch belongs to one query execution; it must not be shared across
// goroutines.
type RowScratch struct {
	Buf   []byte       // encoded-row payload buffer
	Row   sqltypes.Row // decoded value headers
	Arena []int32      // backing store for decoded INT[] values
	// Pos is where the last LookupPKScratch through this scratch ended in its
	// table's key directory — the row found, or the insertion point of a miss.
	// The next lookup starts its search there. It is a hint the search
	// validates by comparison: one scratch serves several tables in turn, and
	// any value, of any table or none, leaves every answer the same.
	Pos int
}
