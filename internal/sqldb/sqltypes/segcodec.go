package sqltypes

import (
	"encoding/binary"
	"fmt"
	"math"

	"ptldb/internal/sqldb/storage"
)

// Segment codec: the row encoding of every stored table. Unlike EncodeRow it
// writes no per-value type tags — the column types are fixed by the table
// schema and stored once in the segment header — so a label row costs exactly
// its varints. BIGINT is a zigzag varint, INT[] a uvarint length plus
// per-element delta varints, DOUBLE its 8 IEEE-754 bytes (little-endian, bit
// pattern preserved) and TEXT a uvarint length plus the bytes. IntRuns, the
// stored form of a non-decreasing INT[] (a label's hubs), is a uvarint length
// plus one (zigzag delta from the previous run's value, uvarint count ≥ 1)
// pair per run of equal elements; after the first run every delta is > 0. It
// decodes to its run form (Value's IntRuns), never expanded. There is no
// encoding of NULL: a stored row has none. Varints carry no width: an INT[]
// element is any value whose running delta sum stays inside int32, and a row
// whose sum leaves it is corrupt.

// corrupt is every decoder's error for bytes that are no encoded row: it
// wraps storage.ErrCorruptSegment, since a segment is a table's only copy.
func corrupt(format string, a ...any) error {
	return fmt.Errorf("sqltypes: %w: %s", storage.ErrCorruptSegment, fmt.Sprintf(format, a...))
}

// EncodeSegRow appends the segment encoding of r under the column tags types
// to buf. Each value must have its column's type — an IntArray value in an
// IntRuns column, non-decreasing — and NULL has none. The decoders bound an
// array's length by the bytes after it in the row, so an IntRuns value reads
// back only from a row holding at least a byte per element after its length:
// a run-ordered table's rows do, with its two sibling arrays, as long, stored
// after it.
func EncodeSegRow(buf []byte, types []Type, r Row) ([]byte, error) {
	if len(r) != len(types) {
		return nil, fmt.Errorf("sqltypes: segment row of %d values under %d column tags", len(r), len(types))
	}
	for i, v := range r {
		t := types[i]
		if v.T != t && (t != IntRuns || v.T != IntArray) {
			return nil, fmt.Errorf("sqltypes: segment cannot encode %s as %s at value %d", v.T, t, i)
		}
		switch t {
		case Int64:
			buf = binary.AppendVarint(buf, v.I)
		case Float64:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.F))
		case Text:
			buf = binary.AppendUvarint(buf, uint64(len(v.S)))
			buf = append(buf, v.S...)
		case IntArray:
			buf = binary.AppendUvarint(buf, uint64(len(v.A)))
			prev := int64(0)
			for _, x := range v.A {
				buf = binary.AppendVarint(buf, int64(x)-prev)
				prev = int64(x)
			}
		case IntRuns:
			buf = binary.AppendUvarint(buf, uint64(len(v.A)))
			prev := int64(0)
			for j := 0; j < len(v.A); {
				x, run := v.A[j], 1
				for j+run < len(v.A) && v.A[j+run] == x {
					run++
				}
				if j > 0 && int64(x) < prev {
					return nil, fmt.Errorf("sqltypes: segment cannot encode %s as %s at value %d: element %d descends", v.T, t, i, j)
				}
				buf = binary.AppendVarint(buf, int64(x)-prev)
				buf = binary.AppendUvarint(buf, uint64(run))
				prev = int64(x)
				j += run
			}
		default:
			return nil, fmt.Errorf("sqltypes: segment cannot encode %s at value %d", v.T, i)
		}
	}
	return buf, nil
}

// countRuns checks the runs of an IntRuns value of n elements — the bytes
// after its length — and returns how many there are. A run of no element or
// of more than are left, a value that does not ascend past the run before it,
// or one outside int32 is corrupt, and so is a length past int32, which no
// run end can hold; i is the value's position, for the error. The counts are
// at least 1 and sum to n, so the run ends putRuns writes ascend strictly to
// n. Both row decoders call it once per runs value, before putRuns.
func countRuns(buf []byte, n uint64, i int) (int, error) {
	if n > math.MaxInt32 {
		return 0, corrupt("runs value %d of %d elements, past int32", i, n)
	}
	prev, runs := int64(0), 0
	for j := uint64(0); j < n; runs++ {
		d, k := binary.Varint(buf)
		if k <= 0 {
			return 0, corrupt("run at element %d of value %d", j, i)
		}
		buf = buf[k:]
		c, k := binary.Uvarint(buf)
		switch {
		case k <= 0:
			return 0, corrupt("run at element %d of value %d", j, i)
		case c == 0 || c > n-j:
			return 0, corrupt("run of %d at element %d of value %d, which has %d", c, j, i, n)
		case j > 0 && d <= 0:
			return 0, corrupt("run at element %d of value %d does not ascend (delta %d)", j, i, d)
		}
		buf = buf[k:]
		// prev is inside int32, so a sum that wraps int64 lands outside it
		// too.
		if prev += d; prev != int64(int32(prev)) {
			return 0, corrupt("run at element %d of value %d is %d, outside int32", j, i, prev)
		}
		j += c
	}
	return runs, nil
}

// putRuns writes the runs countRuns checked into out, two int32s per run — the
// run form of an IntRuns value (Value's IntRuns) — and returns the bytes after
// them.
func putRuns(buf []byte, out []int32) []byte {
	vals, ends := SplitRuns(out)
	prev, end := int64(0), uint64(0)
	for r := range vals {
		d, k := binary.Varint(buf)
		buf = buf[k:]
		c, k := binary.Uvarint(buf)
		buf = buf[k:]
		prev, end = prev+d, end+c
		vals[r], ends[r] = int32(prev), int32(end)
	}
	return buf
}

// SplitRuns returns the run values and the run ends of an IntRuns value's
// elements (Value's IntRuns).
func SplitRuns(a []int32) (vals, ends []int32) {
	r := len(a) / 2
	return a[:r:r], a[r : 2*r : 2*r]
}

// ExpandRuns returns, in a new array, the elements that an IntRuns value's
// elements stand for: each run value repeated up to its run's end.
func ExpandRuns(a []int32) []int32 {
	vals, ends := SplitRuns(a)
	n := int32(0)
	if len(ends) > 0 {
		n = ends[len(ends)-1]
	}
	out := make([]int32, 0, n)
	for r, v := range vals {
		for int32(len(out)) < ends[r] {
			out = append(out, v)
		}
	}
	return out
}

// RunCount returns the number of runs of equal adjacent elements in a: the
// number of run values of its run form.
func RunCount(a []int32) int {
	n := 0
	for j, x := range a {
		if j == 0 || x != a[j-1] {
			n++
		}
	}
	return n
}

// carve returns n int32s carved out of the end of arena and the arena grown
// past them: within its capacity when it has room, else in a new backing
// array — at least twice the old one — that the old elements are copied into,
// so slices carved before stay valid.
func carve(arena []int32, n int) ([]int32, []int32) {
	if free := cap(arena) - len(arena); free < n {
		grown := 2 * cap(arena)
		if grown < len(arena)+n {
			grown = len(arena) + n
		}
		if grown < 64 {
			grown = 64
		}
		na := make([]int32, len(arena), grown)
		copy(na, arena)
		arena = na
	}
	return arena[len(arena) : len(arena)+n : len(arena)+n], arena[:len(arena)+n]
}

// DecodeSegRowInto parses a row written by EncodeSegRow given the column
// types, reusing caller-owned buffers: the returned Row occupies row's
// capacity when it suffices, and every INT[] value is carved out of arena,
// which is returned grown. The arena is append-only — growing it reallocates
// but never overwrites, so array slices from earlier calls stay valid as long
// as the caller keeps passing the returned arena back in. Truncating the
// arena between calls (arena[:0]) recycles the backing and clobbers all
// previously decoded arrays; only do that when nothing is retained. A TEXT
// value is copied out of buf, so it is always safe to keep. An IntRuns column
// decodes to its run form, an IntRuns value of two int32s per run. Malformed
// bytes, an array element outside int32 among them, are an error wrapping
// storage.ErrCorruptSegment.
func DecodeSegRowInto(buf []byte, types []Type, row Row, arena []int32) (Row, []int32, error) {
	var r Row
	if cap(row) >= len(types) {
		r = row[:len(types)]
	} else {
		r = make(Row, len(types))
	}
	for i, t := range types {
		switch t {
		case Int64:
			v, k := binary.Varint(buf)
			if k <= 0 {
				return nil, arena, corrupt("int at value %d", i)
			}
			buf = buf[k:]
			r[i] = NewInt(v)
		case Float64:
			if len(buf) < 8 {
				return nil, arena, corrupt("float at value %d", i)
			}
			r[i] = NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf)))
			buf = buf[8:]
		case Text:
			ln, k := binary.Uvarint(buf)
			if k <= 0 || ln > uint64(len(buf)-k) {
				return nil, arena, corrupt("text at value %d", i)
			}
			// hotpath:cold — text columns never appear in the integer-only
			// label tables the fused codes read; the copy is also what makes
			// the value safe to retain past the scratch buffer.
			r[i] = NewText(string(buf[k : k+int(ln)]))
			buf = buf[k+int(ln):]
		case IntArray, IntRuns:
			ln, k := binary.Uvarint(buf)
			// Every element costs at least one byte — an IntRuns column's
			// elements less, but the run-ordered columns stored after it
			// hold as many elements at a byte or more each — so a length
			// beyond the remaining buffer is corrupt, checked before it can
			// size the arena (or overflow int) on attacker-controlled input.
			if k <= 0 || ln > uint64(len(buf)-k) {
				return nil, arena, corrupt("array at value %d", i)
			}
			buf = buf[k:]
			if t == IntRuns {
				runs, err := countRuns(buf, ln, i)
				if err != nil {
					return nil, arena, err
				}
				var a []int32
				a, arena = carve(arena, 2*runs)
				buf = putRuns(buf, a)
				r[i] = Value{T: IntRuns, A: a}
				continue
			}
			var a []int32
			a, arena = carve(arena, int(ln))
			r[i] = NewIntArray(a)
			prev := int64(0)
			for j := range a {
				d, k := binary.Varint(buf)
				if k <= 0 {
					return nil, arena, corrupt("array element %d of value %d", j, i)
				}
				buf = buf[k:]
				// prev is inside int32, so a sum that wraps int64 lands
				// outside it too.
				if prev += d; prev != int64(int32(prev)) {
					return nil, arena, corrupt("array element %d of value %d is %d, outside int32", j, i, prev)
				}
				a[j] = int32(prev)
			}
		default:
			return nil, arena, fmt.Errorf("sqltypes: segment cannot decode %s at value %d", t, i)
		}
	}
	if len(buf) != 0 {
		return nil, arena, corrupt("%d trailing bytes after segment row", len(buf))
	}
	return r, arena, nil
}

// DecodeSegRowVectors decodes one encoded row of BIGINT / INT[] columns
// (IntArray or IntRuns) into column vectors instead of a Row, for the
// resident vector cache, which holds no other table: the k-th BIGINT of the
// row goes to scalars[k], and the elements of its INT[] values — an IntRuns
// value's run form, two int32s per run — onto the end of elems, in column
// order, with the length of elems after the a-th array recorded at ends[a].
// It accepts exactly the rows DecodeSegRowInto accepts, refusing an element
// outside int32 as that does, and decodes the same values, but elems grows
// only within its capacity — the caller sized it once, for the whole table,
// from the int32 count its segment's header records — so an array that does not fit is an error, never a
// reallocation. The one-, two- and three-byte varints that make up nearly
// every label value are decoded inline; longer ones go to binary.Uvarint.
func DecodeSegRowVectors(buf []byte, types []Type, scalars []int64, elems, ends []int32) ([]int32, error) {
	s, a := 0, 0
	for i, t := range types {
		// A BIGINT decodes like a one-element array without the length
		// prefix: its single delta from zero is the value itself.
		var out []int32
		n := 1
		if t != Int64 {
			// The row decoder's bound on a length, which an IntRuns value
			// needs checked: its runs alone may hold fewer bytes.
			ln, k := binary.Uvarint(buf)
			if k <= 0 || (t != IntArray && t != IntRuns) || ln > uint64(len(buf)-k) {
				return elems, corrupt("array at value %d", i)
			}
			buf = buf[k:]
			n = int(ln)
			if t == IntRuns {
				runs, err := countRuns(buf, ln, i)
				if err != nil {
					return elems, err
				}
				n = 2 * runs
			}
			if n > cap(elems)-len(elems) {
				return elems, corrupt("value %d overflows its vector", i)
			}
			out, elems = elems[len(elems):len(elems)+n], elems[:len(elems)+n]
			ends[a] = int32(len(elems))
			a++
			if t == IntRuns {
				buf = putRuns(buf, out)
				continue
			}
		}
		prev := int64(0)
		for j := 0; j < n; j++ {
			var u uint64
			var k int
			switch {
			case len(buf) > 0 && buf[0] < 0x80:
				u, k = uint64(buf[0]), 1
			case len(buf) > 1 && buf[1] < 0x80:
				u, k = uint64(buf[0]&0x7f)|uint64(buf[1])<<7, 2
			case len(buf) > 2 && buf[2] < 0x80:
				u, k = uint64(buf[0]&0x7f)|uint64(buf[1]&0x7f)<<7|uint64(buf[2])<<14, 3
			default:
				if u, k = binary.Uvarint(buf); k <= 0 {
					return elems, corrupt("element %d of value %d", j, i)
				}
			}
			buf = buf[k:]
			prev += int64(u>>1) ^ -int64(u&1)
			switch {
			case t == Int64:
				scalars[s] = prev
				s++
			case prev != int64(int32(prev)):
				return elems, corrupt("element %d of value %d is %d, outside int32", j, i, prev)
			default:
				out[j] = int32(prev)
			}
		}
	}
	if len(buf) != 0 {
		return elems, corrupt("%d trailing bytes after segment row", len(buf))
	}
	return elems, nil
}
