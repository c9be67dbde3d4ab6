package sqltypes

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"ptldb/internal/sqldb/storage"
)

// Segment codec: the row encoding of every stored table. Unlike EncodeRow it
// writes no per-value type tags — the column types are fixed by the table
// schema and stored once in the segment header — so a label row costs exactly
// its varints. BIGINT is a zigzag varint, INT[] a uvarint length plus
// per-element delta varints, DOUBLE its 8 IEEE-754 bytes (little-endian, bit
// pattern preserved) and TEXT a uvarint length plus the bytes. There is no
// encoding of NULL: a stored row has none. Varints carry no width: an INT[]
// element is any value whose running delta sum stays inside int32, and a row
// whose sum leaves it is corrupt.

// corrupt is every decoder's error for bytes that are no encoded row: it
// wraps storage.ErrCorruptSegment, since a segment is a table's only copy.
func corrupt(format string, a ...any) error {
	return fmt.Errorf("sqltypes: %w: %s", storage.ErrCorruptSegment, fmt.Sprintf(format, a...))
}

// EncodeSegRow appends the segment encoding of r to buf. A NULL value is an
// error.
func EncodeSegRow(buf []byte, r Row) ([]byte, error) {
	for i, v := range r {
		switch v.T {
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
		default:
			return nil, fmt.Errorf("sqltypes: segment cannot encode %s at value %d", v.T, i)
		}
	}
	return buf, nil
}

// DecodeSegRowInto parses a row written by EncodeSegRow given the column
// types, reusing caller-owned buffers: the returned Row occupies row's
// capacity when it suffices, and every INT[] value is carved out of arena,
// which is returned grown. The arena is append-only — growing it reallocates
// but never overwrites, so array slices from earlier calls stay valid as long
// as the caller keeps passing the returned arena back in. Truncating the
// arena between calls (arena[:0]) recycles the backing and clobbers all
// previously decoded arrays; only do that when nothing is retained. A TEXT
// value is copied out of buf, so it is always safe to keep. Malformed bytes,
// an array element outside int32 among them, are an error wrapping
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
		case IntArray:
			ln, k := binary.Uvarint(buf)
			// Every element costs at least one byte, so a length beyond the
			// remaining buffer is corrupt — checked before it can size the
			// arena (or overflow int) on attacker-controlled input.
			if k <= 0 || ln > uint64(len(buf)-k) {
				return nil, arena, corrupt("array at value %d", i)
			}
			buf = buf[k:]
			if free := cap(arena) - len(arena); free < int(ln) {
				grown := 2 * cap(arena)
				if grown < len(arena)+int(ln) {
					grown = len(arena) + int(ln)
				}
				if grown < 64 {
					grown = 64
				}
				na := make([]int32, len(arena), grown)
				copy(na, arena)
				arena = na
			}
			a := arena[len(arena) : len(arena)+int(ln) : len(arena)+int(ln)]
			arena = arena[:len(arena)+int(ln)]
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
			r[i] = NewIntArray(a)
		default:
			return nil, arena, fmt.Errorf("sqltypes: segment cannot decode %s at value %d", t, i)
		}
	}
	if len(buf) != 0 {
		return nil, arena, corrupt("%d trailing bytes after segment row", len(buf))
	}
	return r, arena, nil
}

// The three functions below decode a whole table at once, into column vectors
// instead of rows, and apply to all-BIGINT/INT[] tables only (the resident
// vector cache holds no others). They rest on one property of that encoding:
// every payload byte belongs to exactly one varint, and a varint ends at its
// only byte below 0x80. So the varints of any run of rows can be counted
// without decoding them, and their number is the rows' scalars + array length
// prefixes + array elements. A DOUBLE or TEXT column breaks the property.

// CountSegVarints returns how many varints end in b: the bytes below 0x80,
// counted eight at a time. b may be any chunk of encoded rows — a varint
// split across two chunks is counted once, with the chunk holding its last
// byte.
//
// hotpath — allocheck root: runs over every data page of every segment at
// open.
func CountSegVarints(b []byte) int {
	n := 0
	for ; len(b) >= 8; b = b[8:] {
		n += 8 - bits.OnesCount64(binary.LittleEndian.Uint64(b)&0x8080808080808080)
	}
	for _, c := range b {
		if c < 0x80 {
			n++
		}
	}
	return n
}

// DecodeSegRowVectors decodes one encoded row of BIGINT / INT[] columns:
// the k-th BIGINT of the row goes to scalars[k], and the elements of its
// INT[] values onto the end of elems, in column order, with the length of
// elems after the a-th array recorded at ends[a]. It accepts exactly the rows
// DecodeSegRowInto accepts, refusing an element outside int32 as that does,
// and decodes the same values, but elems grows only within its capacity — the
// caller sized it once, for the whole table, from the varint count — so an
// array that does not fit is an error, never a reallocation. The one-, two-
// and three-byte varints that make up nearly every label value are decoded
// inline; longer ones go to binary.Uvarint.
func DecodeSegRowVectors(buf []byte, types []Type, scalars []int64, elems, ends []int32) ([]int32, error) {
	s, a := 0, 0
	for i, t := range types {
		// A BIGINT decodes like a one-element array without the length
		// prefix: its single delta from zero is the value itself.
		var out []int32
		n := 1
		if t != Int64 {
			ln, k := binary.Uvarint(buf)
			if k <= 0 || t != IntArray {
				return elems, corrupt("array at value %d", i)
			}
			if ln > uint64(cap(elems)-len(elems)) {
				return elems, corrupt("value %d overflows its vector", i)
			}
			buf = buf[k:]
			n = int(ln)
			out, elems = elems[len(elems):len(elems)+n], elems[:len(elems)+n]
			ends[a] = int32(len(elems))
			a++
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
