package sqldb

import (
	"errors"
	"fmt"
	"sync/atomic"

	"ptldb/internal/sqldb/exec"
	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/sqldb/storage"
)

// Table is one stored table in exactly one physical form, fixed when the
// table is opened or bulk-loaded: a columnar segment (the label tables —
// immutable, one directory search plus payload pages per row, fronted by the
// resident vector cache) or an append-only heap of encoded rows under a
// B+tree primary-key index (everything filled by Insert, non-BIGINT schemas,
// rows with NULLs). Both executors read through the same form.
type Table struct {
	def    TableDef
	db     *DB
	pkCols []int

	form rowForm

	// Access counters: primary-key lookups answered (hit or miss) and full
	// scans started. They let tests verify the paper's secondary-storage
	// claims (e.g. "any v2v query needs to access exactly two rows").
	lookups, scans atomic.Uint64
}

// rowForm is a table's physical form. Each implementation owns its files,
// its read code and the counters that code feeds.
type rowForm interface {
	// lookup fetches the row stored under key, decoding into s (the
	// ScratchTable retention contract applies).
	lookup(key storage.Key, s *exec.RowScratch) (sqltypes.Row, bool, error)
	// scan calls fn for every row in key order (insertion order for keyless
	// tables), recycling s between rows.
	scan(s *exec.RowScratch, fn func(sqltypes.Row) error) error
	count() uint64
	flush() error
	close() error
	// remove closes the form, forgets its cached pages and vectors, and
	// deletes its files.
	remove() error
}

// ErrImmutable is returned by writes to a segment-form table: a segment is
// written once by BulkLoad; DropTable + BulkLoad replaces it.
var ErrImmutable = errors.New("table is an immutable segment")

// AccessStats reports how many PK lookups and full scans the table has
// served since open.
func (t *Table) AccessStats() (lookups, scans uint64) {
	return t.lookups.Load(), t.scans.Load()
}

// Def returns the table definition.
func (t *Table) Def() TableDef { return t.def }

// Columns returns the column names in storage order.
func (t *Table) Columns() []string {
	out := make([]string, len(t.def.Columns))
	for i, c := range t.def.Columns {
		out[i] = c.Name
	}
	return out
}

// PKCols returns the indices of the primary-key columns.
func (t *Table) PKCols() []int { return t.pkCols }

// RowCount returns the number of stored rows.
func (t *Table) RowCount() uint64 { return t.form.count() }

// checkRow validates arity and column types, coercing integer values into
// DOUBLE columns in place.
func (t *Table) checkRow(row sqltypes.Row) error {
	if len(row) != len(t.def.Columns) {
		return fmt.Errorf("sqldb: %s: row has %d values, table has %d columns", t.def.Name, len(row), len(t.def.Columns))
	}
	for i, v := range row {
		if v.IsNull() {
			continue
		}
		want := t.def.Columns[i].Type
		if v.T != want {
			// Integers are accepted into DOUBLE columns.
			if want == sqltypes.Float64 && v.T == sqltypes.Int64 {
				row[i] = sqltypes.NewFloat(float64(v.I))
				continue
			}
			return fmt.Errorf("sqldb: %s.%s: cannot store %s into %s", t.def.Name, t.def.Columns[i].Name, v.T, want)
		}
	}
	return nil
}

// heapForWrite returns the table's heap form, or ErrImmutable when the table
// is a segment.
func (t *Table) heapForWrite() (*heapForm, error) {
	h, ok := t.form.(*heapForm)
	if !ok {
		return nil, fmt.Errorf("sqldb: %s: %w", t.def.Name, ErrImmutable)
	}
	return h, nil
}

// Insert validates and stores one row. Inserting a duplicate primary key is
// an error (the heap is append-only and cannot reclaim the old row).
func (t *Table) Insert(row sqltypes.Row) error {
	h, err := t.heapForWrite()
	if err != nil {
		return err
	}
	if err := t.checkRow(row); err != nil {
		return err
	}
	key, err := t.keyOf(row)
	if err != nil {
		return err
	}
	if len(t.pkCols) > 0 {
		if _, exists, err := h.idx.Get(key); err != nil {
			return err
		} else if exists {
			return fmt.Errorf("sqldb: %s: duplicate primary key %v", t.def.Name, key)
		}
	}
	loc, err := h.heap.Append(sqltypes.EncodeRow(nil, row))
	if err != nil {
		return err
	}
	if len(t.pkCols) > 0 {
		return h.idx.Insert(key, loc)
	}
	return nil
}

// ReplaceByPK stores row, overwriting any existing row with the same primary
// key (the index entry is redirected; the heap is append-only, so the old
// row's bytes remain unreferenced until a rebuild).
func (t *Table) ReplaceByPK(row sqltypes.Row) error {
	h, err := t.heapForWrite()
	if err != nil {
		return err
	}
	if len(t.pkCols) == 0 {
		return fmt.Errorf("sqldb: %s has no primary key", t.def.Name)
	}
	if len(row) != len(t.def.Columns) {
		return fmt.Errorf("sqldb: %s: row has %d values, table has %d columns", t.def.Name, len(row), len(t.def.Columns))
	}
	key, err := t.keyOf(row)
	if err != nil {
		return err
	}
	loc, err := h.heap.Append(sqltypes.EncodeRow(nil, row))
	if err != nil {
		return err
	}
	return h.idx.Insert(key, loc)
}

// InsertRows bulk-inserts rows.
func (t *Table) InsertRows(rows []sqltypes.Row) error {
	for i, r := range rows {
		if err := t.Insert(r); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	return nil
}

// BulkLoad stores rows already sorted by strictly ascending primary key into
// an empty table and fixes the table's form. A keyed all-BIGINT/BIGINT[]
// table whose rows hold no NULL becomes a segment: only <name>.seg is
// written and the empty heap and index files are deleted. Anything else
// stays heap + B+tree, the index built bottom-up in one pass over full pages
// (keyless tables are plain heap appends; insertion order is the scan
// order). All rows are validated before anything is stored, so a rejected
// load leaves the table empty.
func (t *Table) BulkLoad(rows []sqltypes.Row) error {
	if n := t.RowCount(); n != 0 {
		return fmt.Errorf("sqldb: %s: bulk load requires an empty table (%d rows stored)", t.def.Name, n)
	}
	h, err := t.heapForWrite()
	if err != nil {
		return err
	}
	var keys []storage.Key
	if len(t.pkCols) > 0 {
		keys = make([]storage.Key, len(rows))
	}
	for i, r := range rows {
		if err := t.checkRow(r); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
		if keys == nil {
			continue
		}
		key, err := t.keyOf(r)
		if err != nil {
			return err
		}
		if i > 0 && !keys[i-1].Less(key) {
			return fmt.Errorf("sqldb: %s: bulk load rows not in strictly ascending key order at row %d (%v then %v)",
				t.def.Name, i, keys[i-1], key)
		}
		keys[i] = key
	}
	if sd, ok := t.segmentData(rows, keys); ok {
		seg, err := t.writeSegment(sd)
		if err != nil {
			return err
		}
		t.form = seg
		return h.remove()
	}
	return h.bulkLoad(rows, keys)
}

func (t *Table) keyOf(row sqltypes.Row) (storage.Key, error) {
	// Single-column keys leave the second component zero, matching
	// LookupPKScratch's key construction.
	var key storage.Key
	for i, ci := range t.pkCols {
		v := row[ci]
		if v.T != sqltypes.Int64 {
			return key, fmt.Errorf("sqldb: %s: primary-key column %s is %s, not BIGINT",
				t.def.Name, t.def.Columns[ci].Name, v.T)
		}
		key[i] = v.I
	}
	return key, nil
}

// LookupPK fetches the row with the given primary-key values (one per PK
// column) into buffers of its own, so the caller may keep the row.
func (t *Table) LookupPK(keyVals []int64) (sqltypes.Row, bool, error) {
	var s exec.RowScratch
	return t.LookupPKScratch(keyVals, &s)
}

// LookupPKScratch implements exec.ScratchTable: LookupPK decoding into s's
// reusable buffers. The returned row is valid until the next call with the
// same scratch; its array values live in s.Arena (which only ever grows) or
// alias immutable cached vectors, so they remain valid for the scratch's
// lifetime.
func (t *Table) LookupPKScratch(keyVals []int64, s *exec.RowScratch) (sqltypes.Row, bool, error) {
	if len(keyVals) != len(t.pkCols) {
		return nil, false, fmt.Errorf("sqldb: %s: lookup with %d key values, PK has %d columns",
			t.def.Name, len(keyVals), len(t.pkCols))
	}
	if len(t.pkCols) == 0 {
		return nil, false, fmt.Errorf("sqldb: %s has no primary key", t.def.Name)
	}
	t.lookups.Add(1)
	var key storage.Key
	copy(key[:], keyVals)
	return t.form.lookup(key, s)
}

// Scan calls fn for every row: in key order for tables with a primary key,
// in insertion order for keyless ones. Every row gets buffers of its own, so
// fn may keep it (the general executor does).
func (t *Table) Scan(fn func(sqltypes.Row) error) error {
	var s exec.RowScratch
	return t.ScanScratch(&s, func(row sqltypes.Row) error {
		s = exec.RowScratch{}
		return fn(row)
	})
}

// ScanScratch implements exec.ScratchTable: Scan reusing s's buffers —
// including the arena — for every row, so the callback must not retain the
// row or any of its array values.
func (t *Table) ScanScratch(s *exec.RowScratch, fn func(sqltypes.Row) error) error {
	t.scans.Add(1)
	return t.form.scan(s, fn)
}
