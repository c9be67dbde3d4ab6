package sqldb

import (
	"fmt"
	"math"

	"ptldb/internal/sqldb/exec"
	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/sqldb/vcache"
)

// The resident-vector tier of a Table: an all-BIGINT/BIGINT[] table's whole
// segment decoded once into flat column vectors and served as slice views.
// A table with a DOUBLE or TEXT column is never registered with the cache
// (Table.open), so nothing here sees one.

// vectorBytes is the exact size of a segment table's materialized vectors —
// vcache.Mat.Bytes before the Mat exists — from what open already knows: the
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

// vcacheMat returns the table's materialized vectors, building them on first
// touch, or nil when the table was dropped meanwhile and the segment should
// serve instead.
func (t *Table) vcacheMat() (*vcache.Mat, error) {
	if m := t.vcE.Acquire(); m != nil {
		return m, nil
	}
	// hotpath:cold — first-touch materialization: the bound-method closure
	// and the decode it drives are the cache-miss cost, paid once per
	// residency.
	return t.vcE.Materialize(t.materialize)
}

// materialize decodes the table's whole segment into vectors for the resident
// vector cache: the key directory is shared with the segment (both
// immutable), each scalar column becomes one int64 per row, and the elements
// of every array, row by row, one shared vector indexed by one shared vector
// of starts. The data region is read directly from the device — one bulk pass
// that must not displace label pages from the buffer pool — and decoded in
// one pass: the varints open counted size every vector, so they are allocated
// once, at exactly vectorBytes (the size the cache admitted the table on),
// and every row is decoded straight into them.
//
// hotpath:cold — runs once per residency, off the lookup path.
func (t *Table) materialize() (*vcache.Mat, error) {
	data, err := t.seg.LoadData()
	if err != nil {
		return nil, fmt.Errorf("sqldb: table %q: %w", t.def.Name, err)
	}
	n, arrays := t.seg.NumRows(), 0
	for _, typ := range t.types {
		if typ == sqltypes.IntArray {
			arrays++
		}
	}
	scalars := len(t.types) - arrays
	nElems := t.varints - n*len(t.types)
	if nElems < 0 || nElems > math.MaxInt32 {
		return nil, fmt.Errorf("sqldb: %s: %d array elements do not fit the vector index", t.def.Name, nElems)
	}
	ints := make([]int64, n*scalars+nElems)
	starts := make([]int32, n*arrays+1)
	elems, row := ints[n*scalars:n*scalars], make([]int64, scalars)
	for i, off := 0, 0; i < n; i++ {
		end := off + int(t.seg.RowLen(i))
		elems, err = sqltypes.DecodeSegRowVectors(data[off:end], t.types, row, elems, starts[i*arrays+1:])
		if err != nil {
			return nil, fmt.Errorf("sqldb: %s: %w", t.def.Name, err)
		}
		for k, v := range row {
			ints[k*n+i] = v
		}
		off = end
	}
	if len(elems) != nElems {
		return nil, fmt.Errorf("sqldb: %s: decoded %d array elements, open counted %d", t.def.Name, len(elems), nElems)
	}
	m := &vcache.Mat{
		Keys:   t.seg.Keys(),
		Cols:   make([]vcache.Col, len(t.types)),
		Elems:  elems,
		Starts: starts,
		Bytes:  int64(n)*16 + int64(len(ints))*8 + int64(len(starts))*4,
	}
	for ci, k, a := 0, 0, 0; ci < len(t.types); ci++ {
		if t.types[ci] == sqltypes.Int64 {
			m.Cols[ci].Ints = ints[k*n : (k+1)*n : (k+1)*n]
			k++
		} else {
			m.Cols[ci] = vcache.Col{Ints: elems, Starts: starts[a:], Stride: arrays}
			a++
		}
	}
	return m, nil
}

// vcacheRow assembles row i of m into s.Row. The value headers are written
// into the scratch, but the array payloads alias the cached vectors — no
// copy, no arena traffic. The views satisfy LookupPKScratch's retention
// contract trivially: the vectors are immutable and the garbage collector
// keeps them alive as long as any view exists, even once they are unpublished.
func vcacheRow(m *vcache.Mat, i int, s *exec.RowScratch) sqltypes.Row {
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
