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
// shared key directory, one int64 per row and BIGINT column, rows+1 starts
// per BIGINT[] column, and one int64 per array element. Every varint of an
// all-integer data region is a BIGINT, an array's length prefix or an array
// element, so the elements are the varints minus one per row and column.
func vectorBytes(types []sqltypes.Type, rows, varints int) int64 {
	n := int64(rows)
	size := 16*n + 8*(int64(varints)-n*int64(len(types)))
	for _, typ := range types {
		if typ == sqltypes.Int64 {
			size += 8 * n
		} else {
			size += 4 * (n + 1)
		}
	}
	return size
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

// materialize decodes the table's whole segment into column vectors for the
// resident vector cache: the key directory is shared with the segment (both
// immutable), scalar columns become one int64 per row, and array columns are
// flattened with a starts index. The data region is read directly from the
// device — one bulk pass that must not displace label pages from the buffer
// pool. A counting pass over the bytes in memory sizes every column, the
// vectors are carved out of two allocations of exactly that size (so
// Mat.Bytes is vectorBytes, which the cache admitted the table on), and the
// rows are decoded straight into them with the segment codec.
//
// hotpath:cold — runs once per residency, off the lookup path.
func (t *Table) materialize() (*vcache.Mat, error) {
	data, err := t.seg.LoadData()
	if err != nil {
		return nil, fmt.Errorf("sqldb: table %q: %w", t.def.Name, err)
	}
	n := t.seg.NumRows()
	elems := make([]int, len(t.types))
	nInts, nArrays := 0, 0
	for i, off := 0, 0; i < n; i++ {
		end := off + int(t.seg.RowLen(i))
		if err := sqltypes.CountSegRow(data[off:end], t.types, elems); err != nil {
			return nil, fmt.Errorf("sqldb: %s: %w", t.def.Name, err)
		}
		off = end
	}
	for ci, typ := range t.types {
		switch {
		case typ == sqltypes.Int64:
			elems[ci] = n
		case elems[ci] > math.MaxInt32:
			return nil, fmt.Errorf("sqldb: %s: column %d overflows the vector index", t.def.Name, ci)
		default:
			nArrays++
		}
		nInts += elems[ci]
	}
	ints := make([]int64, nInts)
	starts := make([]int32, nArrays*(n+1))
	m := &vcache.Mat{
		Keys:  t.seg.Keys(),
		Cols:  make([]vcache.Col, len(t.types)),
		Bytes: int64(n)*16 + int64(len(ints))*8 + int64(len(starts))*4,
	}
	// vecs[ci] is column ci's vector while it fills: empty, its capacity the
	// column's share of ints.
	vecs := make([][]int64, len(t.types))
	for ci, typ := range t.types {
		vecs[ci], ints = ints[:0:elems[ci]], ints[elems[ci]:]
		if typ == sqltypes.IntArray {
			m.Cols[ci].Starts, starts = starts[:n+1:n+1], starts[n+1:]
		}
	}
	for i, off := 0, 0; i < n; i++ {
		end := off + int(t.seg.RowLen(i))
		if err := sqltypes.DecodeSegRowColumns(data[off:end], t.types, vecs); err != nil {
			return nil, fmt.Errorf("sqldb: %s: %w", t.def.Name, err)
		}
		off = end
		for ci := range m.Cols {
			if st := m.Cols[ci].Starts; st != nil {
				st[i+1] = int32(len(vecs[ci]))
			}
		}
	}
	for ci := range m.Cols {
		m.Cols[ci].Ints = vecs[ci]
	}
	return m, nil
}

// vcacheRow assembles row i of m into s.Row. The value headers are written
// into the scratch, but the array payloads alias the cached vectors — no
// copy, no arena traffic. The views satisfy LookupPKScratch's retention
// contract trivially: the vectors are immutable and the garbage collector
// keeps them alive as long as any view exists, even across eviction.
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
