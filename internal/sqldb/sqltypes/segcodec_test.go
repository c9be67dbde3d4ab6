package sqltypes

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ptldb/internal/sqldb/storage"
)

// randSegRow draws a row of the given column types, with the pathological
// shapes (empty arrays, single-element arrays, max-magnitude deltas — the
// int32 extremes for array elements, the int64 ones for scalars — NaN and
// signed-zero doubles, empty and non-UTF-8 text) over-represented. An IntRuns
// column gets a non-decreasing array (no runs, one run, runs at the int32
// ends, hub-like runs), and the packed siblings after it arrays as long that
// keep the run order (randRunSibling).
func randSegRow(rng *rand.Rand, types []Type) Row {
	r := make(Row, len(types))
	var runs, base []int32 // the last runs value, and the last gaps value after it
	for i, t := range types {
		if t == IntRunGaps || t == IntRunOffsets {
			a := randRunSibling(rng, t, runs, base)
			if t == IntRunGaps {
				base = a
			}
			r[i] = NewIntArray(a)
			continue
		}
		switch t {
		case IntRuns:
			var a []int32
			switch rng.Intn(4) {
			case 0:
				a = []int32{}
			case 1: // one run, anywhere in int32
				a = repeat(int32(rng.Uint32()), 1+rng.Intn(40))
			case 2: // a run at each end of int32
				a = append(repeat(math.MinInt32, 1+rng.Intn(3)), repeat(math.MaxInt32, 1+rng.Intn(3))...)
			default: // hubs: ascending, about 26 tuples a run
				for h, runs := int32(rng.Intn(100)), rng.Intn(8); runs > 0; runs-- {
					a = append(a, repeat(h, 1+rng.Intn(52))...)
					h += 1 + rng.Int31n(1<<12)
				}
			}
			runs, base = a, nil
			r[i] = NewIntArray(a)
		case Int64:
			switch rng.Intn(4) {
			case 0:
				r[i] = NewInt(math.MaxInt64)
			case 1:
				r[i] = NewInt(math.MinInt64)
			default:
				r[i] = NewInt(rng.Int63n(1 << 40))
			}
		case IntArray:
			var a []int32
			switch rng.Intn(5) {
			case 0: // empty label run
				a = []int32{}
			case 1: // single-label stop, anywhere in int32
				a = []int32{int32(rng.Uint32())}
			case 2: // max-int32 deltas: alternating extremes
				n := 1 + rng.Intn(6)
				a = make([]int32, n)
				for j := range a {
					if j%2 == 0 {
						a[j] = math.MaxInt32
					} else {
						a[j] = math.MinInt32
					}
				}
			default: // typical sorted label run
				n := rng.Intn(64)
				a = make([]int32, n)
				v := int32(0)
				for j := range a {
					v += rng.Int31n(1 << 20)
					a[j] = v
				}
			}
			r[i] = NewIntArray(a)
		case Float64:
			switch rng.Intn(5) {
			case 0:
				r[i] = NewFloat(math.Float64frombits(0x7ff8000000000000 | rng.Uint64()>>13)) // a NaN, payload kept
			case 1:
				r[i] = NewFloat(math.Copysign(0, -1))
			case 2:
				r[i] = NewFloat(math.Inf(1 - 2*rng.Intn(2)))
			default:
				r[i] = NewFloat(rng.NormFloat64() * 180)
			}
		case Text:
			switch rng.Intn(4) {
			case 0:
				r[i] = NewText("")
			case 1: // longer than a page
				r[i] = NewText(strings.Repeat("stop name ", 1000+rng.Intn(100)))
			default: // arbitrary bytes, mostly not UTF-8
				b := make([]byte, rng.Intn(40))
				rng.Read(b)
				r[i] = NewText(string(b))
			}
		}
	}
	return r
}

// randRunSibling draws the value of a packed sibling column tagged t for the
// runs value g, base being the gaps value before it: per run of g, elements
// that ascend strictly (IntRunGaps) — across the whole of int32, in gaps of 1
// at its top, or departure-like, 1 to 8 192 s apart — or that never descend
// and sit at or above base (IntRunOffsets) — equal to it, as a dummy tuple's
// arrival is, at MaxInt32, or up to an hour later.
func randRunSibling(rng *rand.Rand, t Type, g, base []int32) []int32 {
	a := make([]int32, len(g))
	for s := 0; s < len(g); {
		e := s + 1
		for e < len(g) && g[e] == g[s] {
			e++
		}
		mode := rng.Intn(4)
		x := int64(math.MinInt32)
		for j := s; j < e; j++ {
			switch {
			case t == IntRunGaps && mode == 0: // the widest gap, into the last element
				x = int64(math.MinInt32) + int64(j-s)
				if j == e-1 && j > s {
					x = math.MaxInt32
				}
			case t == IntRunGaps && mode == 1:
				x = math.MaxInt32 - int64(e-1-j)
			case t == IntRunGaps:
				if j == s {
					x = rng.Int63n(1<<17) - 1<<10
				} else {
					x += 1 + rng.Int63n(1<<13)
				}
			case mode == 0:
				x = max(x, int64(base[j]))
			case mode == 1:
				x = math.MaxInt32
			default:
				x = min(math.MaxInt32, max(x, int64(base[j])+rng.Int63n(3600)))
			}
			a[j] = int32(x)
		}
		s = e
	}
	return a
}

// repeat returns n copies of v.
func repeat(v int32, n int) []int32 {
	a := make([]int32, n)
	for i := range a {
		a[i] = v
	}
	return a
}

// expanded returns r with every IntRuns value — a runs column as the
// decoder reads it — replaced by the IntArray it stands for, which is what
// EncodeSegRow takes in that column.
func expanded(r Row) Row {
	out := slices.Clone(r)
	for i, v := range out {
		if v.T == IntRuns {
			out[i] = NewIntArray(ExpandRuns(v.A))
		}
	}
	return out
}

// rowsEqual requires bit-exact equality (see sameValue).
func rowsEqual(t *testing.T, want, got Row) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("row length: want %d got %d", len(want), len(got))
	}
	for i := range want {
		if !sameValue(want[i], got[i]) {
			t.Fatalf("value %d: want %v got %v", i, want[i], got[i])
		}
	}
}

// TestSegCodecRoundTripFuzz is the seeded fuzz round-trip for the segment
// codec, covering empty runs, single-label stops and max-int32 deltas.
func TestSegCodecRoundTripFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(1316))
	shapes := [][]Type{
		{Int64, IntRuns, IntRunGaps, IntRunOffsets},       // lout/lin as stored
		{Int64, IntArray, IntArray, IntArray},             // lout/lin's types
		{Int64, Int64, IntArray, IntArray},                // naive kNN (hub, td, vs, tas)
		{Int64, Int64, Int64, Int64, Int64, Int64, Int64}, // condensed
		{Int64},
		{IntArray},
		{Int64, Text, Float64, Float64}, // stops
		{Int64, Text},                   // ptldb_meta
		{Float64},
		{Text, IntArray, Float64, Text},
	}
	var buf []byte
	var row Row
	var arena []int32
	for iter := 0; iter < 2000; iter++ {
		types := shapes[rng.Intn(len(shapes))]
		in := randSegRow(rng, types)
		var err error
		buf, err = EncodeSegRow(buf[:0], types, in)
		if err != nil {
			t.Fatalf("iter %d: encode: %v", iter, err)
		}
		row, arena, err = DecodeSegRowInto(buf, types, row, arena[:0])
		if err != nil {
			t.Fatalf("iter %d: decode: %v", iter, err)
		}
		rowsEqual(t, in, expanded(row))
	}
}

// TestSegCodecMatchesRowCodec cross-checks the two codecs: the executor's
// row key (EncodeRow) of a row read back from a segment, runs expanded as the
// general executor's rows hold them, is the key of the row that was stored,
// so grouping over stored rows sees the values written.
func TestSegCodecMatchesRowCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, types := range [][]Type{
		{Int64, IntRuns, IntRunGaps, IntRunOffsets},
		{Int64, IntArray, IntArray, IntArray},
		{Int64, Text, Float64, Float64},
	} {
		for iter := 0; iter < 200; iter++ {
			in := randSegRow(rng, types)
			seg, err := EncodeSegRow(nil, types, in)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := DecodeSegRowInto(seg, types, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want, key := EncodeRow(nil, in), EncodeRow(nil, expanded(got)); string(key) != string(want) {
				t.Fatalf("row %v reads back with key %x, stored with %x", in, key, want)
			}
		}
	}
}

// TestSegCodecRejectsIneligible pins what the codec has no encoding for: a
// NULL value, a value of another type than its column's, a descending array
// in a runs column, and packed siblings that break the run order — a repeated
// or descending td inside a run, a ta below its td or descending inside a
// run, a length other than the runs value's, or no runs (gaps) value before
// them — refuse to encode, and a schema naming no storable column type
// refuses to decode.
func TestSegCodecRejectsIneligible(t *testing.T) {
	for _, r := range []Row{
		{Null},
		{NewInt(1), Null},
		{NewText("x"), NewFloat(1.5), Null},
	} {
		if _, err := EncodeSegRow(nil, typesOf(r), r); err == nil {
			t.Fatalf("EncodeSegRow(%v) succeeded, want error", r)
		}
	}
	for _, c := range []struct {
		types []Type
		r     Row
	}{
		{[]Type{IntArray}, Row{NewInt(1)}},
		{[]Type{IntRuns}, Row{NewInt(1)}},
		{[]Type{Int64, Int64}, Row{NewInt(1)}},
		{[]Type{IntRuns}, Row{NewIntArray([]int32{3, 3, 2})}},
		{labelTypes, Row{NewInt(1), NewIntArray([]int32{4, 4}), NewIntArray([]int32{9, 9}), NewIntArray([]int32{9, 9})}},
		{labelTypes, Row{NewInt(1), NewIntArray([]int32{4, 4}), NewIntArray([]int32{9, 8}), NewIntArray([]int32{9, 9})}},
		{labelTypes, Row{NewInt(1), NewIntArray([]int32{4, 5}), NewIntArray([]int32{9, 8}), NewIntArray([]int32{9, 7})}},
		{labelTypes, Row{NewInt(1), NewIntArray([]int32{4, 4}), NewIntArray([]int32{1, 2}), NewIntArray([]int32{9, 8})}},
		{labelTypes, Row{NewInt(1), NewIntArray([]int32{4, 4}), NewIntArray([]int32{1}), NewIntArray([]int32{9})}},
		{labelTypes, Row{NewInt(1), NewIntArray([]int32{4, 4}), NewIntArray([]int32{1, 2}), NewIntArray([]int32{9})}},
		{[]Type{Int64, IntArray, IntRunGaps}, Row{NewInt(1), NewIntArray([]int32{4}), NewIntArray([]int32{1})}},
		{[]Type{Int64, IntRuns, IntRunOffsets}, Row{NewInt(1), NewIntArray([]int32{4}), NewIntArray([]int32{1})}},
	} {
		if _, err := EncodeSegRow(nil, c.types, c.r); err == nil {
			t.Fatalf("EncodeSegRow(%v, %v) succeeded, want error", c.types, c.r)
		}
	}
	for _, typ := range []Type{NullType, Type(9)} {
		if _, _, err := DecodeSegRowInto(nil, []Type{typ}, nil, nil); err == nil {
			t.Fatalf("DecodeSegRowInto with a %s column succeeded, want error", typ)
		}
	}
	// Trailing garbage after a well-formed row must be rejected.
	buf, err := EncodeSegRow(nil, []Type{Int64}, Row{NewInt(9)})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeSegRowInto(append(buf, 0x01), []Type{Int64}, nil, nil); err == nil {
		t.Fatal("trailing bytes accepted, want error")
	}
}

// TestSegDecodeRefusesElementOutsideInt32 pins the width of an INT[]
// element: varints carry none, so bytes whose running delta sum leaves int32
// — past either end, or by a delta that wraps int64 — are corrupt, and the
// decoder refuses them with storage.ErrCorruptSegment instead of narrowing.
// The extremes themselves decode.
func TestSegDecodeRefusesElementOutsideInt32(t *testing.T) {
	types := []Type{Int64, IntArray}
	row := func(deltas ...int64) []byte {
		b := binary.AppendUvarint(binary.AppendVarint(nil, 7), uint64(len(deltas)))
		for _, d := range deltas {
			b = binary.AppendVarint(b, d)
		}
		return b
	}
	for _, c := range []struct {
		name   string
		deltas []int64
	}{
		{"one past MaxInt32", []int64{math.MaxInt32 + 1}},
		{"one below MinInt32", []int64{math.MinInt32 - 1}},
		{"a step past MaxInt32", []int64{5, math.MaxInt32}},
		{"a step below MinInt32", []int64{math.MinInt32, -1}},
		{"a delta that wraps int64", []int64{math.MaxInt32, math.MaxInt64}},
		{"the int64 extremes", []int64{math.MaxInt64, math.MinInt64}},
	} {
		_, _, err := DecodeSegRowInto(row(c.deltas...), types, nil, nil)
		if !errors.Is(err, storage.ErrCorruptSegment) || !strings.Contains(err.Error(), "outside int32") {
			t.Errorf("%s: DecodeSegRowInto = %v, want ErrCorruptSegment naming int32", c.name, err)
		}
	}
	got, _, err := DecodeSegRowInto(row(math.MaxInt32, math.MinInt32-math.MaxInt32, math.MaxInt32), types, nil, nil)
	want := []int32{math.MaxInt32, math.MinInt32, -1}
	if err != nil || !slices.Equal(got[1].A, want) {
		t.Errorf("the int32 extremes decode to %v (%v); want %v", got, err, want)
	}
}

// TestSegDecodeRunsFailClosed pins the runs form of a label's hubs: an
// empty array, one run and runs at both ends of int32 decode to the run form
// — the run values, then the run ends — which expands to the arrays they
// spell; a zero count, a count past the length, a run that does not ascend
// past the one before it (a repeated hub, or a lower one), a value one past
// either end of int32 and a row cut inside a run are refused with
// storage.ErrCorruptSegment.
func TestSegDecodeRunsFailClosed(t *testing.T) {
	types := labelTypes
	row := func(n int, pairs ...int64) []byte { return labelBytes(n, pairs, nil, nil) }
	decode := func(enc []byte) ([]int32, error) {
		got, _, err := DecodeSegRowInto(enc, types, nil, nil)
		if err != nil {
			return nil, err
		}
		if got[1].T != IntRuns {
			t.Fatalf("the runs column decodes to a %s value", got[1].T)
		}
		return got[1].A, nil
	}
	for _, c := range []struct {
		name       string
		enc        []byte
		runs, want []int32
	}{
		{"empty", row(0), []int32{}, []int32{}},
		{"one run", row(3, 5, 3), []int32{5, 3}, []int32{5, 5, 5}},
		{"three runs", row(6, 2, 3, 7, 1, 31, 2), []int32{2, 9, 40, 3, 4, 6}, []int32{2, 2, 2, 9, 40, 40}},
		{"the int32 ends", row(3, math.MinInt32, 2, math.MaxInt32-math.MinInt32, 1), []int32{math.MinInt32, math.MaxInt32, 2, 3}, []int32{math.MinInt32, math.MinInt32, math.MaxInt32}},
	} {
		hubs, err := decode(c.enc)
		if err != nil || !slices.Equal(hubs, c.runs) {
			t.Errorf("%s: hubs decode to %v (%v); want the run form %v", c.name, hubs, err, c.runs)
		}
		if got := ExpandRuns(hubs); !slices.Equal(got, c.want) {
			t.Errorf("%s: the run form %v expands to %v, want %v", c.name, hubs, got, c.want)
		}
	}
	for _, c := range []struct {
		name string
		enc  []byte
	}{
		{"a zero count", row(3, 5, 0, 5, 3)},
		{"a count past the length", row(3, 5, 4)},
		{"runs short of the length", row(3, 5, 2)},
		{"a repeated hub", row(3, 5, 1, 0, 2)},
		{"a lower hub", row(3, 5, 1, -1, 2)},
		{"one past MaxInt32", row(1, math.MaxInt32+1, 1)},
		{"one below MinInt32", row(1, math.MinInt32-1, 1)},
		{"a step past MaxInt32", row(2, math.MaxInt32, 1, 1, 1)},
		{"a delta that wraps int64", row(2, math.MaxInt32, 1, math.MaxInt64, 1)},
		{"cut inside a run", binary.AppendVarint(binary.AppendUvarint(binary.AppendVarint(nil, 7), 3), 5)},
	} {
		if _, err := decode(c.enc); !errors.Is(err, storage.ErrCorruptSegment) {
			t.Errorf("%s: DecodeSegRowInto = %v, want ErrCorruptSegment", c.name, err)
		}
	}
}

// labelTypes is a label row as lout and lin store it: (v, hubs, tds, tas).
var labelTypes = []Type{Int64, IntRuns, IntRunGaps, IntRunOffsets}

// labelBytes encodes a label row (labelTypes) of n tuples whose hubs are the
// (delta, count) pairs and whose tds and tas are the bytes given, or, when
// tds is nil, 0, 1, 2, … inside each run at gaps of 1, with tas equal.
func labelBytes(n int, pairs []int64, tds, tas []byte) []byte {
	b := binary.AppendUvarint(binary.AppendVarint(nil, 7), uint64(n))
	for i, x := range pairs {
		if i%2 == 0 {
			b = binary.AppendVarint(b, x)
		} else {
			b = binary.AppendUvarint(b, uint64(x))
		}
	}
	if tds == nil {
		for i := 1; i < len(pairs); i += 2 {
			tds = append(tds, 0) // the run's first element, 0 after 0
			tas = append(tas, 0) // offsets of 0
			if c := int(pairs[i]); c > 1 {
				tds = append(tds, 1)
				for k := 0; k < c-1; k += 8 {
					tds = append(tds, byte(1)<<min(8, c-1-k)-1)
				}
			} else {
				tds = append(tds, 0)
			}
		}
	}
	return append(append(b, tds...), tas...)
}

// packedRun is one run of a packed sibling: for IntRunGaps the zigzag
// varint of its first element's delta first, then the width byte and the
// packed fields.
func packedRun(delta *int64, width byte, fields ...byte) []byte {
	var b []byte
	if delta != nil {
		b = binary.AppendVarint(b, *delta)
	}
	return append(append(b, width), fields...)
}

// first is a pointer to d, for packedRun.
func first(d int64) *int64 { return &d }

// TestSegDecodePackedFailClosed pins the packed siblings of a label's hubs:
// per run of the hubs, tds as its first element and gaps, tas as offsets from
// tds, each run's fields at a width of its own. Widths 0 (a run of one, and
// offsets of 0) and 32 (gaps and offsets spanning int32) decode to the
// absolute elements; a width of 33, packed bits past the row, a first element
// or a sum of gaps or offsets outside int32, a zero gap, tas descending
// inside a run, a runs length past the bits after it and a sibling with no
// runs value before it are refused with storage.ErrCorruptSegment.
func TestSegDecodePackedFailClosed(t *testing.T) {
	cat := func(parts ...[]byte) []byte { return slices.Concat(parts...) }
	ones32 := []byte{0xff, 0xff, 0xff, 0xff}
	for _, c := range []struct {
		name     string
		enc      []byte
		tds, tas []int32
	}{
		{"width 0: a run of one", labelBytes(1, []int64{5, 1}, packedRun(first(100), 0), packedRun(nil, 0)),
			[]int32{100}, []int32{100}},
		{"width 32: the int32 ends", labelBytes(2, []int64{5, 2}, packedRun(first(math.MinInt32), 32, ones32...), packedRun(nil, 32, cat(ones32, make([]byte, 4))...)),
			[]int32{math.MinInt32, math.MaxInt32}, []int32{math.MaxInt32, math.MaxInt32}},
		{"two runs", labelBytes(5, []int64{2, 3, 7, 2},
			cat(packedRun(first(28800), 4, 0x5a), packedRun(first(-100), 3, 0x07)),
			cat(packedRun(nil, 4, 0xa0, 0x05), packedRun(nil, 1, 0x02))),
			[]int32{28800, 28810, 28815, 28700, 28707}, []int32{28800, 28820, 28820, 28700, 28708}},
	} {
		row, _, err := DecodeSegRowInto(c.enc, labelTypes, nil, nil)
		if err != nil {
			t.Errorf("%s: DecodeSegRowInto = %v, want tds %v and tas %v", c.name, err, c.tds, c.tas)
			continue
		}
		if tds, tas := row[2].A, row[3].A; !slices.Equal(tds, c.tds) || !slices.Equal(tas, c.tas) {
			t.Errorf("%s: decode to tds %v, tas %v; want %v and %v", c.name, tds, tas, c.tds, c.tas)
		}
		// The decoded row is what EncodeSegRow writes.
		if enc, err := EncodeSegRow(nil, labelTypes, expanded(row)); err != nil || string(enc) != string(c.enc) {
			t.Errorf("%s: re-encodes to %x (%v), want %x", c.name, enc, err, c.enc)
		}
	}
	for _, c := range []struct {
		name, frag string
		types      []Type
		enc        []byte
	}{
		{"tds width 33", "past 32", labelTypes, labelBytes(2, []int64{5, 2}, packedRun(first(0), 33, 1, 0, 0, 0, 0, 0, 0, 0, 0), packedRun(nil, 0))},
		{"tas width 33", "past 32", labelTypes, labelBytes(1, []int64{5, 1}, packedRun(first(0), 0), packedRun(nil, 33, 0, 0, 0, 0, 0))},
		{"tds width 0 over two elements", "repeats", labelTypes, labelBytes(2, []int64{5, 2}, packedRun(first(0), 0), packedRun(nil, 0))},
		{"a zero gap", "repeats", labelTypes, labelBytes(3, []int64{5, 3}, packedRun(first(0), 2, 0x01), packedRun(nil, 0))},
		{"tds bits past the row", "past the row", labelTypes, labelBytes(2, []int64{5, 2}, packedRun(first(0), 16, 0x01), nil)},
		{"tas bits past the row", "past the row", labelTypes, labelBytes(2, []int64{5, 2}, packedRun(first(0), 1, 0x01), packedRun(nil, 32, 0, 0, 0, 0, 0))},
		{"a run with no width", "no width", labelTypes, labelBytes(2, []int64{5, 1, 1, 1}, append(packedRun(first(0), 0), 2), nil)},
		{"a first element past MaxInt32", "outside int32", labelTypes, labelBytes(1, []int64{5, 1}, packedRun(first(math.MaxInt32+1), 0), packedRun(nil, 0))},
		{"a first element below MinInt32", "outside int32", labelTypes, labelBytes(1, []int64{5, 1}, packedRun(first(math.MinInt32-1), 0), packedRun(nil, 0))},
		{"a later run's first past MaxInt32", "outside int32", labelTypes, labelBytes(2, []int64{5, 1, 1, 1},
			cat(packedRun(first(math.MaxInt32), 0), packedRun(first(1), 0)), cat(packedRun(nil, 0), packedRun(nil, 0)))},
		{"gaps past MaxInt32", "outside int32", labelTypes, labelBytes(2, []int64{5, 2}, packedRun(first(math.MaxInt32), 1, 0x01), packedRun(nil, 0))},
		{"an offset past MaxInt32", "outside int32", labelTypes, labelBytes(1, []int64{5, 1}, packedRun(first(math.MaxInt32), 0), packedRun(nil, 1, 0x01))},
		{"the widest offset past MaxInt32", "outside int32", labelTypes, labelBytes(1, []int64{5, 1}, packedRun(first(0), 0), packedRun(nil, 32, ones32...))},
		{"tas descending inside a run", "descends", labelTypes, labelBytes(2, []int64{5, 2}, packedRun(first(0), 4, 0x0a), packedRun(nil, 5, 0x14, 0x00))},
		{"a runs length past the bits after it", "array at value 1", labelTypes, labelBytes(17, []int64{5, 17}, nil, nil)[:4]},
		{"a runs length of 2⁴⁰", "array at value 1", labelTypes, labelBytes(1<<40, []int64{5, 1 << 40}, []byte{}, nil)},
		{"gaps with no runs value", "no runs value", []Type{Int64, IntArray, IntRunGaps}, []byte{14, 0, 0, 0}},
		{"offsets with no gaps value", "no runs value", []Type{Int64, IntRuns, IntRunOffsets}, labelBytes(1, []int64{5, 1}, packedRun(nil, 0), nil)},
	} {
		if _, _, err := DecodeSegRowInto(c.enc, c.types, nil, nil); !errors.Is(err, storage.ErrCorruptSegment) || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: DecodeSegRowInto = %v, want ErrCorruptSegment naming %q", c.name, err, c.frag)
		}
	}
}

// TestSegDecodeArenaAliasing is the aliasing-hostile test: arrays carved out
// of the arena for row A must stay intact while row B decodes into the same
// growing arena, across reallocation boundaries.
func TestSegDecodeArenaAliasing(t *testing.T) {
	types := []Type{Int64, IntArray}
	mk := func(base int32, n int) Row {
		a := make([]int32, n)
		for i := range a {
			a[i] = base + int32(i)
		}
		return Row{NewInt(int64(base)), NewIntArray(a)}
	}
	rowA := mk(100, 48) // large enough to force the first growth
	rowB := mk(9000, 512)

	bufA, err := EncodeSegRow(nil, types, rowA)
	if err != nil {
		t.Fatal(err)
	}
	bufB, err := EncodeSegRow(nil, types, rowB)
	if err != nil {
		t.Fatal(err)
	}

	decA, arena, err := DecodeSegRowInto(bufA, types, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	heldA := decA[1].A // retained view into the arena
	// Decoding B keeps (does not truncate) the arena, so A's view must
	// survive the reallocation that B's 512 elements force.
	decB, arena, err := DecodeSegRowInto(bufB, types, nil, arena)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range heldA {
		if v != 100+int32(i) {
			t.Fatalf("row A array clobbered at %d: got %d", i, v)
		}
	}
	for i, v := range decB[1].A {
		if v != 9000+int32(i) {
			t.Fatalf("row B array wrong at %d: got %d", i, v)
		}
	}
	// The carved slices must be capacity-clamped: appending to A's view
	// cannot overwrite B's data.
	grown := append(heldA, -1)
	if decB[1].A[0] != 9000 {
		t.Fatalf("append through row A view clobbered row B: %d", decB[1].A[0])
	}
	_ = grown
	_ = arena
}

// FuzzSegCodecRoundTrip feeds arbitrary bytes to DecodeSegRowInto under a
// fuzz-chosen schema, runs columns and their packed siblings included: any
// outcome is fine except a panic, and whatever the decoder accepts must
// re-encode and decode back to the same row, a runs column compared through
// its expansion (what EncodeSegRow takes). The comparison is semantic, not
// byte-for-byte — non-canonical varints, widths and padding bits in the input
// decode fine but re-encode shorter or zeroed — so the canonical re-encoding
// is additionally required to be a fixed point of the codec. The one row that
// re-encodes yet does not decode is one whose runs column holds more elements
// than the canonical bits after its length: the decoder bounds a length by
// them, and no run-ordered table stores such a row (its packed gaps spend
// them).
func FuzzSegCodecRoundTrip(f *testing.F) {
	// The schema is 1..7 columns (ncols' low three bits) whose kinds are read
	// two bits at a time from kinds, lowest column first; with ncols' bit 3
	// set the first INT[] column is stored as runs, and with bit 4 set the
	// first three are a run-ordered triple: runs, then the two packed
	// siblings.
	fuzzKinds := [4]Type{Int64, IntArray, Float64, Text}
	const runsBit, labelBit = 0x08, 0x10
	schema := func(ncols byte, kinds uint16) []Type {
		types := make([]Type, int(ncols&0x07)+1)
		var arrays []Type // the tags the first INT[] columns are stored under
		switch {
		case ncols&labelBit != 0:
			arrays = []Type{IntRuns, IntRunGaps, IntRunOffsets}
		case ncols&runsBit != 0:
			arrays = []Type{IntRuns}
		}
		for i := range types {
			types[i] = fuzzKinds[kinds>>(2*i)&3]
			if types[i] == IntArray && len(arrays) > 0 {
				types[i], arrays = arrays[0], arrays[1:]
			}
		}
		return types
	}
	seedAs := func(ncols byte, r Row) {
		kinds := uint16(0)
		for i, v := range r {
			for k, typ := range fuzzKinds {
				if v.T == typ {
					kinds |= uint16(k) << (2 * i)
				}
			}
		}
		ncols |= byte(len(r) - 1)
		buf, err := EncodeSegRow(nil, schema(ncols, kinds), r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(ncols, kinds, buf)
	}
	seed := func(r Row) { seedAs(0, r) }
	seed(Row{NewInt(42)})
	seed(Row{NewInt(7), NewIntArray([]int32{1, 5, 5, 9})})
	seed(Row{NewIntArray(nil)})
	// Varints of 1, 2, 3, 4 and 10 bytes as scalars; of 1, 2, 3, 4 and 5
	// bytes, the widest an int32 delta takes, as deltas.
	seed(Row{NewInt(5), NewInt(1000), NewInt(100000), NewInt(10000000), NewInt(math.MinInt64)})
	seed(Row{NewIntArray([]int32{5, 1005, 101005, 10101005, math.MaxInt32})})
	// The widest deltas: MaxInt32 and MinInt32 alternating.
	seed(Row{NewInt(math.MaxInt64), NewIntArray([]int32{math.MaxInt32, math.MinInt32, math.MaxInt32, 0})})
	// Elements whose running sum leaves int32, which no INT[] value can
	// encode: one past each end, a step past MaxInt32, and a delta that
	// wraps int64.
	elems := func(deltas ...int64) []byte {
		b := binary.AppendUvarint(nil, uint64(len(deltas)))
		for _, d := range deltas {
			b = binary.AppendVarint(b, d)
		}
		return b
	}
	f.Add(byte(0), uint16(1), elems(math.MaxInt32+1))
	f.Add(byte(0), uint16(1), elems(math.MinInt32-1))
	f.Add(byte(0), uint16(1), elems(math.MaxInt32, 1))
	f.Add(byte(1), uint16(0b0100), append(binary.AppendVarint(nil, 3), elems(math.MaxInt32, math.MaxInt64)...))
	// Empty arrays, and two arrays of different lengths in one row.
	seed(Row{NewInt(1), NewIntArray([]int32{}), NewIntArray([]int32{})})
	seed(Row{NewInt(7), NewIntArray([]int32{1, 2, 3}), NewIntArray([]int32{9})})
	// Non-canonical 0x80 0x00 (zero in two bytes) as a scalar, a length and an
	// element.
	f.Add(byte(0), uint16(0), []byte{0x80, 0x00})
	f.Add(byte(0), uint16(1), []byte{0x81, 0x00, 0x80, 0x00})
	f.Add(byte(6), uint16(0x1555), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add(byte(0), uint16(1), []byte{0xfe})
	seed(Row{NewInt(3), NewText("Congress Ave / 6th"), NewFloat(30.2672), NewFloat(-97.7431)})
	seed(Row{NewFloat(math.NaN()), NewFloat(math.Copysign(0, -1)), NewFloat(math.Inf(-1)), NewText("")})
	seed(Row{NewText("\xff\xc0 not utf-8"), NewText(strings.Repeat("p", 3*8192))})
	f.Add(byte(0), uint16(3), []byte{0x05, 'a', 'b'}) // text length past the end of the row
	f.Add(byte(0), uint16(2), []byte{1, 2, 3, 4, 5, 6, 7})
	// A label row as lout and lin store it — (v, hubs as runs, tds and tas
	// packed) — and raw ones (labelBytes) whose runs are given as (delta,
	// count) pairs: an empty array, one run, a zero count, a count past the
	// length, a repeated hub (a delta of 0 after the first run), a run at each
	// end of int32 and one past each end; then packed siblings at widths 0, 32
	// and 33, with bits past the row, a zero gap, elements past int32 and tas
	// descending inside a run (TestSegDecodePackedFailClosed's).
	const label = labelBit | 3
	const labelKinds = 0b01010100
	seedAs(labelBit, Row{NewInt(7), NewIntArray([]int32{2, 2, 2, 9, 40, 40}), NewIntArray([]int32{1, 2, 3, 1, 5, 6}), NewIntArray([]int32{4, 5, 6, 2, 9, 9})})
	seedAs(labelBit, Row{NewInt(7), NewIntArray([]int32{3, 3}), NewIntArray([]int32{math.MinInt32, math.MaxInt32}), NewIntArray([]int32{math.MaxInt32, math.MaxInt32})})
	runs := func(n int, pairs ...int64) []byte { return labelBytes(n, pairs, nil, nil) }
	f.Add(byte(label), uint16(labelKinds), runs(0))
	f.Add(byte(label), uint16(labelKinds), runs(3, 5, 3))
	f.Add(byte(label), uint16(labelKinds), runs(3, 5, 0, 5, 3))
	f.Add(byte(label), uint16(labelKinds), runs(3, 5, 4))
	f.Add(byte(label), uint16(labelKinds), runs(3, 5, 1, 0, 2))
	f.Add(byte(label), uint16(labelKinds), runs(2, math.MinInt32, 1, math.MaxInt32-math.MinInt32, 1))
	f.Add(byte(label), uint16(labelKinds), runs(1, math.MaxInt32+1, 1))
	f.Add(byte(label), uint16(labelKinds), runs(1, math.MinInt32-1, 1))
	f.Add(byte(label), uint16(labelKinds), runs(2, math.MaxInt32, 1, 1, 1))
	f.Add(byte(label), uint16(labelKinds), runs(17, 5, 17)[:4])
	for _, sib := range [][2][]byte{
		{packedRun(first(100), 0), packedRun(nil, 0)},
		{packedRun(first(0), 33, 1, 0, 0, 0, 0), packedRun(nil, 0)},
		{packedRun(first(0), 0), packedRun(nil, 33, 0, 0, 0, 0, 0)},
		{packedRun(first(0), 16, 0x01), nil},
		{packedRun(first(math.MaxInt32+1), 0), packedRun(nil, 0)},
		{packedRun(first(math.MaxInt32), 0), packedRun(nil, 1, 0x01)},
		{packedRun(first(0), 0), packedRun(nil, 32, 0xff, 0xff, 0xff, 0xff)},
	} {
		f.Add(byte(label), uint16(labelKinds), labelBytes(1, []int64{5, 1}, sib[0], sib[1]))
	}
	for _, sib := range [][2][]byte{
		{packedRun(first(0), 0), packedRun(nil, 0)},
		{packedRun(first(0), 1, 0x00), packedRun(nil, 0)},
		{packedRun(first(0), 4, 0x0a), packedRun(nil, 5, 0x14, 0x00)},
		{packedRun(first(math.MinInt32), 32, 0xff, 0xff, 0xff, 0xff), packedRun(nil, 32, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)},
	} {
		f.Add(byte(label), uint16(labelKinds), labelBytes(2, []int64{5, 2}, sib[0], sib[1]))
	}
	f.Fuzz(func(t *testing.T, ncols byte, kinds uint16, data []byte) {
		types := schema(ncols, kinds)
		runsAt := -1
		for i, typ := range types {
			if typ == IntRuns {
				runsAt = i
			}
		}
		row, _, err := DecodeSegRowInto(data, types, nil, nil)
		if err != nil {
			return // rejected input: fine, as long as it didn't panic
		}
		flat := expanded(row)
		enc, err := EncodeSegRow(nil, types, flat)
		if err != nil {
			t.Fatalf("decoded row refuses to re-encode: %v (row %v)", err, flat)
		}
		again, _, err := DecodeSegRowInto(enc, types, nil, nil)
		if runsAt >= 0 {
			head, headErr := EncodeSegRow(nil, types[:runsAt], flat[:runsAt])
			if headErr != nil {
				t.Fatal(headErr)
			}
			n := len(flat[runsAt].A)
			if after := len(enc) - len(head) - len(binary.AppendUvarint(nil, uint64(n))); n > 8*after {
				if err == nil {
					t.Fatalf("a runs column of %d elements with %d bytes after its length decodes from %x", n, after, enc)
				}
				return
			}
		}
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v (row %v)", err, flat)
		}
		rowsEqual(t, flat, expanded(again))
		// The canonical encoding must be a fixed point: encoding the second
		// decode reproduces it byte-for-byte.
		enc2, err := EncodeSegRow(nil, types, expanded(again))
		if err != nil {
			t.Fatal(err)
		}
		if string(enc2) != string(enc) {
			t.Fatalf("canonical encoding not a fixed point:\n first %x\nsecond %x", enc, enc2)
		}
	})
}
