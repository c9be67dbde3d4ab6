package sqltypes

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Segment codec: the row encoding of every stored table. Unlike EncodeRow it
// writes no per-value type tags — the column types are fixed by the table
// schema and stored once in the segment header — so a label row costs exactly
// its varints. BIGINT is a zigzag varint, BIGINT[] a uvarint length plus
// per-element delta varints, DOUBLE its 8 IEEE-754 bytes (little-endian, bit
// pattern preserved) and TEXT a uvarint length plus the bytes. There is no
// encoding of NULL: a stored row has none.

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
				buf = binary.AppendVarint(buf, x-prev)
				prev = x
			}
		default:
			return nil, fmt.Errorf("sqltypes: segment cannot encode %s at value %d", v.T, i)
		}
	}
	return buf, nil
}

// DecodeSegRowInto parses a row written by EncodeSegRow given the column
// types, reusing caller-owned buffers: the returned Row occupies row's
// capacity when it suffices, and every BIGINT[] value is carved out of arena,
// which is returned grown. The arena is append-only — growing it reallocates
// but never overwrites, so array slices from earlier calls stay valid as long
// as the caller keeps passing the returned arena back in. Truncating the
// arena between calls (arena[:0]) recycles the backing and clobbers all
// previously decoded arrays; only do that when nothing is retained. A TEXT
// value is copied out of buf, so it is always safe to keep.
func DecodeSegRowInto(buf []byte, types []Type, row Row, arena []int64) (Row, []int64, error) {
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
				return nil, arena, fmt.Errorf("sqltypes: corrupt segment int at value %d", i)
			}
			buf = buf[k:]
			r[i] = NewInt(v)
		case Float64:
			if len(buf) < 8 {
				return nil, arena, fmt.Errorf("sqltypes: corrupt segment float at value %d", i)
			}
			r[i] = NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf)))
			buf = buf[8:]
		case Text:
			ln, k := binary.Uvarint(buf)
			if k <= 0 || ln > uint64(len(buf)-k) {
				return nil, arena, fmt.Errorf("sqltypes: corrupt segment text at value %d", i)
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
				return nil, arena, fmt.Errorf("sqltypes: corrupt segment array at value %d", i)
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
				na := make([]int64, len(arena), grown)
				copy(na, arena)
				arena = na
			}
			a := arena[len(arena) : len(arena)+int(ln) : len(arena)+int(ln)]
			arena = arena[:len(arena)+int(ln)]
			prev := int64(0)
			for j := range a {
				d, k := binary.Varint(buf)
				if k <= 0 {
					return nil, arena, fmt.Errorf("sqltypes: corrupt segment array element %d of value %d", j, i)
				}
				buf = buf[k:]
				prev += d
				a[j] = prev
			}
			r[i] = NewIntArray(a)
		default:
			return nil, arena, fmt.Errorf("sqltypes: segment cannot decode %s at value %d", t, i)
		}
	}
	if len(buf) != 0 {
		return nil, arena, fmt.Errorf("sqltypes: %d trailing bytes after segment row", len(buf))
	}
	return r, arena, nil
}

// The three functions below decode a whole table at once, into column vectors
// instead of rows, and apply to all-BIGINT/BIGINT[] tables only (the resident
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

// CountSegRow adds the length of each BIGINT[] value of one encoded row to
// elems[i], i the value's column; BIGINT columns are left alone. It walks the
// varints without decoding them, so it accepts every row DecodeSegRowColumns
// accepts and sizes that function's vectors exactly.
func CountSegRow(buf []byte, types []Type, elems []int) error {
	for i, t := range types {
		skip := uint64(1)
		if t == IntArray {
			ln, k := binary.Uvarint(buf)
			if k <= 0 || ln > uint64(len(buf)-k) {
				return fmt.Errorf("sqltypes: corrupt segment array at value %d", i)
			}
			buf = buf[k:]
			elems[i] += int(ln)
			skip = ln
		}
		for ; skip > 0; skip-- {
			k := 0
			for k < len(buf) && buf[k] >= 0x80 {
				k++
			}
			if k == len(buf) {
				return fmt.Errorf("sqltypes: corrupt segment row at value %d", i)
			}
			buf = buf[k+1:]
		}
	}
	if len(buf) != 0 {
		return fmt.Errorf("sqltypes: %d trailing bytes after segment row", len(buf))
	}
	return nil
}

// DecodeSegRowColumns decodes one encoded row onto the ends of per-column
// vectors: a BIGINT extends cols[i] by its value, a BIGINT[] by its elements
// (the caller records the row boundary). The vectors grow only within their
// capacity — the caller allocated them once, at the sizes CountSegRow found —
// so a row that does not fit is an error, never a reallocation.
func DecodeSegRowColumns(buf []byte, types []Type, cols [][]int64) error {
	for i, t := range types {
		// A BIGINT decodes like a one-element array without the length
		// prefix: its single delta from zero is the value itself.
		ln := uint64(1)
		if t == IntArray {
			var k int
			if ln, k = binary.Uvarint(buf); k <= 0 {
				return fmt.Errorf("sqltypes: corrupt segment array at value %d", i)
			}
			buf = buf[k:]
		}
		col := cols[i]
		if ln > uint64(cap(col)-len(col)) {
			return fmt.Errorf("sqltypes: segment value %d overflows its column vector", i)
		}
		out := col[len(col) : len(col)+int(ln)]
		prev := int64(0)
		for j := range out {
			d, k := binary.Varint(buf)
			if k <= 0 {
				return fmt.Errorf("sqltypes: corrupt segment element %d of value %d", j, i)
			}
			buf = buf[k:]
			prev += d
			out[j] = prev
		}
		cols[i] = col[:len(col)+int(ln)]
	}
	if len(buf) != 0 {
		return fmt.Errorf("sqltypes: %d trailing bytes after segment row", len(buf))
	}
	return nil
}
