package sqldb

import (
	"fmt"
	"math"

	"ptldb/internal/sqldb/exec"
	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/sqldb/storage"
)

// The resident-vector tier of a Table: an all-BIGINT/BIGINT[] table's whole
// segment decoded once into flat column vectors and served as slice views.
// A hit skips the buffer pool, the payload copy and the varint decode; what
// is left per lookup is a search of the key directory and value headers
// that alias the vectors.
//
// Admission is Open's alone, decided once per table in catalog order: a
// table is admitted when its exact vector size fits what the tables admitted
// before it left of the handle's budget (Options.VectorCacheBytes), and is
// decoded before Open returns. Any other is declined and reads its segment.
// Nothing is ever evicted: labels never go stale, so a budget just under the
// working set declines the last tables instead of decoding tables over and
// over. A table that BulkLoad writes through an open handle reads its
// segment until the directory is opened again. A table with a DOUBLE or TEXT
// column is never admitted, so nothing here sees one.

// Mat is one table's decoded segment: the key directory plus fully decoded
// column vectors. A Mat is immutable after construction; readers alias its
// slices freely, and a table that lets its Mat go leaves them intact.
type Mat struct {
	// Keys is the ascending key directory (shared with the segment's own
	// in-memory directory; both are immutable).
	Keys []storage.Key
	// Cols holds one decoded column per table column, in storage order.
	Cols []Col
	// Elems is every array element of the table, row by row and, within a
	// row, column by column; Starts is where each of them begins: the a-th
	// array column of row i spans Elems[Starts[i·A+a]:Starts[i·A+a+1]], A
	// the number of array columns, so Starts has len(Keys)·A + 1 entries.
	// The array columns of Cols are views of the two.
	Elems  []int64
	Starts []int32
	// Bytes is the Mat's budget charge: the backing arrays of the keys, the
	// scalar columns, Elems and Starts.
	Bytes int64
}

// Col is one decoded column. A scalar (BIGINT) column stores row i's value at
// Ints[i] and leaves Starts nil. An array (BIGINT[]) column is a view of its
// Mat's shared vectors: Ints is Mat.Elems, Starts is Mat.Starts from the
// column's own first entry, and Stride is the number of array columns, so
// Starts[i·Stride]:Starts[i·Stride+1] delimits row i's elements.
type Col struct {
	Ints   []int64
	Starts []int32 // nil for scalar columns
	Stride int
}

// Array returns row i's elements of an array column. The view aliases the
// decoded vector: immutable, and kept alive by the garbage collector even
// after the table is replaced, so callers may retain it as long as they need.
func (c *Col) Array(i int) []int64 {
	j := i * c.Stride
	return c.Ints[c.Starts[j]:c.Starts[j+1]:c.Starts[j+1]]
}

// vectorBytes is the exact size of a segment table's materialized vectors —
// Mat.Bytes before the Mat exists — from what open already knows: the
// shared key directory, one int64 per row and BIGINT column, one int64 per
// array element, and one int32 start per row and BIGINT[] column plus the
// final end. Every varint of an all-integer data region is a BIGINT, an
// array's length prefix or an array element, so the elements are the varints
// minus one per row and column.
func vectorBytes(types []sqltypes.Type, rows, varints int) int64 {
	n, arrays := int64(rows), int64(0)
	for _, typ := range types {
		if typ == sqltypes.IntArray {
			arrays++
		}
	}
	elems := int64(varints) - n*int64(len(types))
	return 16*n + 8*(n*(int64(len(types))-arrays)+elems) + 4*(n*arrays+1)
}

// decode turns the table's data region — the bytes open read and verified —
// into vectors for the resident vector cache: the key directory is shared
// with the segment (both immutable), each scalar column becomes one int64
// per row, and the elements of every array, row by row, one shared vector
// indexed by one shared vector of starts. The region is decoded in one pass:
// the varints open counted size every vector, so they are allocated once,
// at exactly vectorBytes (the size Open admitted the table on), and
// every row is decoded straight into them.
func (t *Table) decode(data []byte, varints int) (*Mat, error) {
	n, arrays := t.seg.NumRows(), 0
	for _, typ := range t.types {
		if typ == sqltypes.IntArray {
			arrays++
		}
	}
	scalars := len(t.types) - arrays
	nElems := varints - n*len(t.types)
	if nElems < 0 || nElems > math.MaxInt32 {
		return nil, fmt.Errorf("%d array elements do not fit the vector index", nElems)
	}
	ints := make([]int64, n*scalars+nElems)
	starts := make([]int32, n*arrays+1)
	elems, row := ints[n*scalars:n*scalars], make([]int64, scalars)
	for i, off := 0, 0; i < n; i++ {
		end := off + int(t.seg.RowLen(i))
		var err error
		elems, err = sqltypes.DecodeSegRowVectors(data[off:end], t.types, row, elems, starts[i*arrays+1:])
		if err != nil {
			return nil, err
		}
		for k, v := range row {
			ints[k*n+i] = v
		}
		off = end
	}
	if len(elems) != nElems {
		return nil, fmt.Errorf("decoded %d array elements, open counted %d", len(elems), nElems)
	}
	m := &Mat{
		Keys:   t.seg.Keys(),
		Cols:   make([]Col, len(t.types)),
		Elems:  elems,
		Starts: starts,
		Bytes:  int64(n)*16 + int64(len(ints))*8 + int64(len(starts))*4,
	}
	for ci, k, a := 0, 0, 0; ci < len(t.types); ci++ {
		if t.types[ci] == sqltypes.Int64 {
			m.Cols[ci].Ints = ints[k*n : (k+1)*n : (k+1)*n]
			k++
		} else {
			m.Cols[ci] = Col{Ints: elems, Starts: starts[a:], Stride: arrays}
			a++
		}
	}
	return m, nil
}

// vcacheRow assembles row i of m into s.Row. The value headers are written
// into the scratch, but the array payloads alias the cached vectors — no
// copy, no arena traffic. The views satisfy LookupPKScratch's retention
// contract trivially: the vectors are immutable and the garbage collector
// keeps them alive as long as any view exists, even once the table is replaced.
func vcacheRow(m *Mat, i int, s *exec.RowScratch) sqltypes.Row {
	var r sqltypes.Row
	if cap(s.Row) >= len(m.Cols) {
		r = s.Row[:len(m.Cols)]
	} else {
		r = make(sqltypes.Row, len(m.Cols))
	}
	for ci := range m.Cols {
		col := &m.Cols[ci]
		if col.Starts == nil {
			r[ci] = sqltypes.NewInt(col.Ints[i])
		} else {
			r[ci] = sqltypes.NewIntArray(col.Array(i))
		}
	}
	s.Row = r
	return r
}
