package sqldb

import (
	"fmt"

	"ptldb/internal/sqldb/exec"
	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/sqldb/storage"
)

// The resident-vector tier of a Table: an all-BIGINT/INT[] table's whole
// segment decoded once into flat column vectors and served as slice views.
// A hit skips the buffer pool, the payload copy and the varint decode; what
// is left per lookup is a search of the key directory and value headers
// that alias the vectors. A runs column — a label's hubs — stays in the run
// form it is stored in, two int32s per run (sqltypes.IntRuns), never one per
// tuple: a label of Austin ×0.15 holds about 34 runs against 1 321 tuples.
//
// Admission is Open's alone, decided once per table in image order: a
// table is admitted when its exact vector size fits what the tables admitted
// before it left of the handle's budget (Options.VectorCacheBytes), and is
// decoded before Open returns. Any other is declined and reads its segment.
// Nothing is ever evicted: labels never go stale, so a budget just under the
// working set declines the last tables instead of decoding tables over and
// over. A table that Load writes through an open handle reads its
// segment until the directory is opened again. A table with a DOUBLE or TEXT
// column is never admitted, so nothing here sees one.

// Mat is one table's decoded segment: the key directory plus fully decoded
// column vectors. A Mat is immutable after construction; readers alias its
// slices freely, and a table that lets its Mat go leaves them intact.
type Mat struct {
	// Keys is the ascending key directory (shared with the segment's own
	// in-memory directory; both are immutable).
	Keys []storage.Key
	// Ints is every BIGINT of the table, column by column: the k-th scalar
	// column of row i is Ints[k·n+i], n = len(Keys).
	Ints []int64
	// Elems is every array element of the table — a runs column's run form,
	// its R run values then its R run ends — row by row and, within a row,
	// column by column; Starts is where each of them begins: the a-th array
	// column of row i spans Elems[Starts[i·A+a]:Starts[i·A+a+1]], A the
	// number of array columns, so Starts has len(Keys)·A + 1 entries.
	Elems  []int32
	Starts []int32
	// Bytes is the Mat's budget charge: the backing arrays of the keys, Ints,
	// Elems and Starts.
	Bytes int64
}

// vectorBytes is the exact size of a segment table's materialized vectors —
// Mat.Bytes before the Mat exists — from what its segment's header says (the
// column tags, the row count and the int32 count of the meta, which counts a
// runs column's run form): 16 B per row of the shared key directory, 8 B per
// row and BIGINT column, 4 B per int32 of Elems, and a 4-B start per row and
// array column plus the final end.
func vectorBytes(types []sqltypes.Type, rows, elems int) int64 {
	n, arrays := int64(rows), int64(0)
	for _, typ := range types {
		if typ != sqltypes.Int64 {
			arrays++
		}
	}
	return 16*n + 8*n*(int64(len(types))-arrays) + 4*int64(elems) + 4*(n*arrays+1)
}

// decode turns the table's data region — the bytes open read and verified —
// into vectors for the resident vector cache: the key directory is shared
// with the segment (both immutable), the scalar columns become one int64 per
// row and column, and the elements of every array (a runs column's run form),
// row by row, one shared int32 vector indexed by one shared vector of starts.
// Each row is decoded once, by sqltypes.DecodeSegRowInto, with that shared
// vector as its arena: nElems, the int32 count the segment's header records,
// is the arena's capacity, so the arrays are carved out of it back to back
// and every vector is allocated once, at exactly vectorBytes (the size Open
// admitted the table on). A row that would grow the arena past the header's
// count, or rows that hold fewer elements, are a corrupt segment.
func (t *Table) decode(data []byte, nElems int) (*Mat, error) {
	n, arrays := t.seg.NumRows(), 0
	for _, typ := range t.stored {
		if typ != sqltypes.Int64 {
			arrays++
		}
	}
	ints := make([]int64, n*(len(t.stored)-arrays))
	elems := make([]int32, 0, nElems)
	starts := make([]int32, n*arrays+1)
	row := make(sqltypes.Row, len(t.stored))
	for i, off := 0, 0; i < n; i++ {
		end := off + int(t.seg.RowLen(i))
		var err error
		if row, elems, err = sqltypes.DecodeSegRowInto(data[off:end], t.stored, row, elems); err != nil {
			return nil, err
		}
		if cap(elems) != nElems {
			return nil, fmt.Errorf("%w: row %d holds array elements past the header's %d", storage.ErrCorruptSegment, i, nElems)
		}
		k, a := i, i*arrays
		for ci, v := range row {
			if t.stored[ci] == sqltypes.Int64 {
				ints[k] = v.I
				k += n
			} else {
				starts[a+1] = starts[a] + int32(len(v.A))
				a++
			}
		}
		off = end
	}
	if len(elems) != nElems {
		return nil, fmt.Errorf("%w: the rows hold %d array elements, the header %d", storage.ErrCorruptSegment, len(elems), nElems)
	}
	return &Mat{
		Keys:   t.seg.Keys(),
		Ints:   ints,
		Elems:  elems,
		Starts: starts,
		Bytes:  int64(n)*16 + int64(len(ints))*8 + int64(len(elems))*4 + int64(len(starts))*4,
	}, nil
}

// vcacheRow assembles row i of m, a table whose column tags are stored, into
// s.Row: a runs column as an sqltypes.IntRuns value, as the segment tier's
// decode serves it. The value headers are written into the scratch, but the
// array payloads alias the cached vectors — no copy, no arena traffic — each
// capped at its own end, so an append through one cannot overwrite the next.
// The views satisfy LookupPKScratch's retention contract trivially: the
// vectors are immutable and the garbage collector keeps them alive as long
// as any view exists, even once the table is replaced.
func vcacheRow(m *Mat, stored []sqltypes.Type, i int, s *exec.RowScratch) sqltypes.Row {
	var r sqltypes.Row
	if cap(s.Row) >= len(stored) {
		r = s.Row[:len(stored)]
	} else {
		r = make(sqltypes.Row, len(stored))
	}
	n := len(m.Keys)
	k, a := i, i*((len(m.Starts)-1)/n)
	for ci, typ := range stored {
		if typ == sqltypes.Int64 {
			r[ci] = sqltypes.NewInt(m.Ints[k])
			k += n
			continue
		}
		lo, hi := m.Starts[a], m.Starts[a+1]
		r[ci] = sqltypes.NewIntArray(m.Elems[lo:hi:hi])
		if typ == sqltypes.IntRuns {
			r[ci].T = sqltypes.IntRuns
		}
		a++
	}
	s.Row = r
	return r
}
