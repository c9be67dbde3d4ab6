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
// its varints and packed bits. BIGINT is a zigzag varint, INT[] a uvarint
// length plus per-element delta varints, DOUBLE its 8 IEEE-754 bytes
// (little-endian, bit pattern preserved) and TEXT a uvarint length plus the
// bytes. There is no encoding of NULL: a stored row has none.
//
// A run-ordered table (a label: hubs, tds, tas) stores its three arrays in
// three forms of their own, one per column tag:
//
//   - IntRuns, the leading column (hubs), non-decreasing: a uvarint length
//     plus one (zigzag delta from the previous run's value, uvarint count ≥ 1)
//     pair per run of equal elements; after the first run every delta is > 0.
//     It decodes to its run form (Value's IntRuns), never expanded.
//   - IntRunGaps, the first sibling (tds): no length — it is the runs
//     value's — and per run of the IntRuns value before it a zigzag varint
//     from the previous run's first element (0 before the first run), then
//     one width byte w ≤ 32 and the run's n − 1 gaps, each ≥ 1 (the elements
//     ascend strictly inside a run), packed at w bits.
//   - IntRunOffsets, the second sibling (tas): per run one width byte w ≤ 32
//     and the run's n offsets from the IntRunGaps value before it (ta − td,
//     ≥ 0), packed at w bits; the elements never descend inside a run.
//
// Packed fields are written least significant bit first, each run's from a
// byte boundary, its last byte padded with zero bits. The siblings decode to
// plain IntArray values. Varints carry no width: an INT[] element is any
// value whose running sum stays inside int32, and a row whose sum leaves it is
// corrupt; so is a width past 32, packed bits that run past the row, a zero
// gap and a sibling element outside int32 or descending inside its run.

// corrupt is every decoder's error for bytes that are no encoded row: it
// wraps storage.ErrCorruptSegment, since a segment is a table's only copy.
func corrupt(format string, a ...any) error {
	return fmt.Errorf("sqltypes: %w: %s", storage.ErrCorruptSegment, fmt.Sprintf(format, a...))
}

// EncodeSegRow appends the segment encoding of r under the column tags types
// to buf. Each value must have its column's type — an IntArray value in an
// IntRuns, IntRunGaps or IntRunOffsets column — and NULL has none. An IntRuns
// value must not descend; an IntRunGaps value must be as long as the IntRuns
// value before it and ascend strictly inside each of its runs, and an
// IntRunOffsets value as long, at or above the IntRunGaps value before it
// element by element and never descending inside a run. The decoder bounds
// an IntRuns value's length by the bits after it in the row, so it reads back
// only from a row holding at least a bit per element after its length: a
// run-ordered table's rows do, with its two packed siblings stored after it.
func EncodeSegRow(buf []byte, types []Type, r Row) ([]byte, error) {
	if len(r) != len(types) {
		return nil, fmt.Errorf("sqltypes: segment row of %d values under %d column tags", len(r), len(types))
	}
	// g is the last runs value and ends its run ends, base the last gaps
	// value after it; fields is one run's packed fields.
	var g, base, fields []int32
	var ends []int
	runs, gaps := false, false
	for i, v := range r {
		t := types[i]
		if v.T != t && (v.T != IntArray || (t != IntRuns && t != IntRunGaps && t != IntRunOffsets)) {
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
			ends = ends[:0]
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
				ends = append(ends, j)
			}
			g, runs, base, gaps = v.A, true, nil, false
		case IntRunGaps, IntRunOffsets:
			a := v.A
			switch {
			case !runs || (t == IntRunOffsets && !gaps):
				return nil, fmt.Errorf("sqltypes: segment cannot encode %s at value %d: no runs value before it", t, i)
			case len(a) != len(g):
				return nil, fmt.Errorf("sqltypes: segment cannot encode %s at value %d: %d elements, its runs value %d", t, i, len(a), len(g))
			}
			prev, s := int64(0), 0
			for _, e := range ends {
				fields = fields[:0]
				if t == IntRunGaps {
					buf = binary.AppendVarint(buf, int64(a[s])-prev)
					prev = int64(a[s])
					for j := s + 1; j < e; j++ {
						if a[j] <= a[j-1] {
							return nil, fmt.Errorf("sqltypes: segment cannot encode %s at value %d: element %d does not ascend past %d inside its run", t, i, j, a[j-1])
						}
						fields = append(fields, a[j]-a[j-1])
					}
				} else {
					for j := s; j < e; j++ {
						if a[j] < base[j] || (j > s && a[j] < a[j-1]) {
							return nil, fmt.Errorf("sqltypes: segment cannot encode %s at value %d: element %d is below its base %d or descends inside its run", t, i, j, base[j])
						}
						fields = append(fields, a[j]-base[j])
					}
				}
				buf = appendPacked(buf, fields)
				s = e
			}
			if t == IntRunGaps {
				base, gaps = a, true
			}
		default:
			return nil, fmt.Errorf("sqltypes: segment cannot encode %s at value %d", v.T, i)
		}
	}
	return buf, nil
}

// appendPacked appends one width byte w — the bit length of the widest of the
// fields f, each read as a uint32 — and the fields packed at w bits, least
// significant bit first, into whole bytes.
func appendPacked(buf []byte, f []int32) []byte {
	w := 0
	for _, x := range f {
		w = max(w, bits.Len32(uint32(x)))
	}
	buf = append(buf, byte(w))
	acc, have := uint64(0), 0
	for _, x := range f {
		acc |= uint64(uint32(x)) << have
		for have += w; have >= 8; have -= 8 {
			buf = append(buf, byte(acc))
			acc >>= 8
		}
	}
	if have > 0 {
		buf = append(buf, byte(acc))
	}
	return buf
}

// packed reads the width byte w at the front of buf, for run r of the
// sibling value i whose n fields are packed after it, and returns w, the bytes
// after the width byte — the fields first, then the rest of the row, which a
// reader may load whole words of (refill) — and the bytes after the fields.
// A width past 32, or fields that run past buf, are corrupt.
func packed(buf []byte, n int, r, i int) (w uint, p, rest []byte, err error) {
	if len(buf) == 0 {
		return 0, nil, nil, corrupt("run %d of value %d has no width", r, i)
	}
	if w = uint(buf[0]); w > 32 {
		return 0, nil, nil, corrupt("run %d of value %d is packed %d bits wide, past 32", r, i, w)
	}
	p = buf[1:]
	// n < 2³¹ fields of ≤ 32 bits: no overflow in uint64, on any platform.
	nb := (uint64(n)*uint64(w) + 7) / 8
	if nb > uint64(len(p)) {
		return 0, nil, nil, corrupt("run %d of value %d packs %d bytes, past the row's %d", r, i, nb, len(p))
	}
	return w, p, p[nb:], nil
}

// refill adds the bytes at the front of p to acc, which holds have bits
// already read from the bytes before them, and returns p past the bytes
// whose bits acc now holds whole, acc and its count of bits: at least 56
// from one little-endian word when p holds eight bytes, else every byte of p
// up to 64. A byte read twice adds the bits acc already holds.
func refill(p []byte, acc uint64, have uint) ([]byte, uint64, uint) {
	if len(p) >= 8 {
		acc |= binary.LittleEndian.Uint64(p) << have
		k := (63 - have) >> 3
		return p[k:], acc, have + k<<3
	}
	for ; have <= 56 && len(p) > 0; p = p[1:] {
		acc |= uint64(p[0]) << have
		have += 8
	}
	return p, acc, have
}

// runCtx is what a row decoder knows, for the packed siblings, of the
// IntRuns value it decoded last: its run ends, and the elements of the
// IntRunGaps value decoded after it.
type runCtx struct {
	ends, base []int32
	runs, gaps bool
}

// setRuns records a decoded IntRuns value's run form a.
func (c *runCtx) setRuns(a []int32) {
	_, c.ends = SplitRuns(a)
	c.runs, c.base, c.gaps = true, nil, false
}

// length returns the number of elements of the sibling value i tagged t: the
// runs value's. A sibling with no runs value before it, or an IntRunOffsets
// value with no IntRunGaps value after that, is corrupt.
func (c *runCtx) length(t Type, i int) (int, error) {
	if !c.runs || (t == IntRunOffsets && !c.gaps) {
		return 0, corrupt("%s value %d stored after no runs value", t, i)
	}
	if len(c.ends) == 0 {
		return 0, nil
	}
	return int(c.ends[len(c.ends)-1]), nil
}

// put decodes the sibling value i tagged t into out, as long as length
// returned, and returns the bytes after it. Each run's fields are read w bits
// at a time from a word refilled when it holds fewer (refill).
func (c *runCtx) put(buf []byte, t Type, out []int32, i int) ([]byte, error) {
	start := int32(0)
	if t == IntRunGaps {
		c.base, c.gaps = out, true
		first := int64(0)
		for r, end := range c.ends {
			d, k := binary.Varint(buf)
			if k <= 0 {
				return nil, corrupt("run %d of value %d", r, i)
			}
			// first is inside int32, so a sum that wraps int64 lands
			// outside it too.
			if first += d; first != int64(int32(first)) {
				return nil, corrupt("run %d of value %d starts at %d, outside int32", r, i, first)
			}
			w, p, rest, err := packed(buf[k:], int(end-start-1), r, i)
			if err != nil {
				return nil, err
			}
			x, acc, have, mask := first, uint64(0), uint(0), uint64(1)<<w-1
			o := out[start:end]
			o[0] = int32(x)
			for j := 1; j < len(o); j++ {
				if have < w {
					p, acc, have = refill(p, acc, have)
				}
				gap := int64(acc & mask)
				acc, have = acc>>w, have-w
				if gap == 0 {
					return nil, corrupt("element %d of value %d repeats the one before it inside its run", int(start)+j, i)
				}
				if x += gap; x > math.MaxInt32 {
					return nil, corrupt("element %d of value %d is %d, outside int32", int(start)+j, i, x)
				}
				o[j] = int32(x)
			}
			buf, start = rest, end
		}
		return buf, nil
	}
	for r, end := range c.ends {
		w, p, rest, err := packed(buf, int(end-start), r, i)
		if err != nil {
			return nil, err
		}
		// Offsets of 0 — a run of dummy tuples — leave the gaps value's
		// elements, which ascend inside the run.
		if w == 0 {
			copy(out[start:end], c.base[start:end])
			buf, start = rest, end
			continue
		}
		prev, acc, have, mask := int64(math.MinInt64), uint64(0), uint(0), uint64(1)<<w-1
		o := out[start:end]
		base := c.base[start:end]
		base = base[:len(o)]
		for j := range o {
			if have < w {
				p, acc, have = refill(p, acc, have)
			}
			x := int64(base[j]) + int64(acc&mask)
			acc, have = acc>>w, have-w
			switch {
			case x > math.MaxInt32:
				return nil, corrupt("element %d of value %d is %d, outside int32", int(start)+j, i, x)
			case x < prev:
				return nil, corrupt("element %d of value %d descends inside its run", int(start)+j, i)
			}
			o[j], prev = int32(x), x
		}
		buf, start = rest, end
	}
	return buf, nil
}

// maxLen is the most elements an array of column tag t can hold in the rest
// bytes after its length: a byte each for an INT[] element, a bit each for an
// IntRuns value's, whose packed IntRunGaps sibling after it spends at least
// that — a gap of at least 1 costs a bit, a run's first element and width
// two bytes.
func maxLen(t Type, rest int) uint64 {
	if t == IntRuns {
		return 8 * uint64(rest)
	}
	return uint64(rest)
}

// countRuns checks the runs of an IntRuns value of n elements — the bytes
// after its length — and returns how many there are. A run of no element or
// of more than are left, a value that does not ascend past the run before it,
// or one outside int32 is corrupt, and so is a length past int32, which no
// run end can hold; i is the value's position, for the error. The counts are
// at least 1 and sum to n, so the run ends putRuns writes ascend strictly to
// n. DecodeSegRowInto calls it once per runs value, before putRuns.
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
// previously decoded arrays; only do that when nothing is retained. Each
// array is carved right after the one before it, in column order, so an
// arena with room for them all holds them back to back and is never
// reallocated: the vector tier decodes a whole table into one arena sized by
// its segment's header, and reads a reallocation as a miscount. A TEXT
// value is copied out of buf, so it is always safe to keep. An IntRuns column
// decodes to its run form, an IntRuns value of two int32s per run, and its
// packed siblings to IntArray values. Malformed bytes, an array element
// outside int32 among them, are an error wrapping storage.ErrCorruptSegment.
func DecodeSegRowInto(buf []byte, types []Type, row Row, arena []int32) (Row, []int32, error) {
	var r Row
	if cap(row) >= len(types) {
		r = row[:len(types)]
	} else {
		r = make(Row, len(types))
	}
	var rc runCtx
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
		case IntRunGaps, IntRunOffsets:
			// The runs value before it bounded the length by the row's
			// bits, before it could size the arena.
			n, err := rc.length(t, i)
			if err != nil {
				return nil, arena, err
			}
			var a []int32
			a, arena = carve(arena, n)
			if buf, err = rc.put(buf, t, a, i); err != nil {
				return nil, arena, err
			}
			r[i] = NewIntArray(a)
		case IntArray, IntRuns:
			ln, k := binary.Uvarint(buf)
			// A length beyond what the rest of the row can hold (maxLen) is
			// corrupt, checked before it can size the arena (or overflow
			// int) on attacker-controlled input.
			if k <= 0 || ln > maxLen(t, len(buf)-k) {
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
				rc.setRuns(a)
				r[i] = Value{T: IntRuns, A: a}
				continue
			}
			var a []int32
			a, arena = carve(arena, int(ln))
			r[i] = NewIntArray(a)
			prev := int64(0)
			for j := range a {
				// The one-, two- and three-byte varints that make up nearly
				// every element are decoded inline; longer ones go to
				// binary.Uvarint. Either way the zigzag is undone below.
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
						return nil, arena, corrupt("array element %d of value %d", j, i)
					}
				}
				buf = buf[k:]
				// prev is inside int32, so a sum that wraps int64 lands
				// outside it too.
				if prev += int64(u>>1) ^ -int64(u&1); prev != int64(int32(prev)) {
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
