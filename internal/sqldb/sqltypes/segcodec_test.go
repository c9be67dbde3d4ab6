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
// ends, hub-like runs), and every INT[] column after it its length, as a
// run-ordered table's siblings have.
func randSegRow(rng *rand.Rand, types []Type) Row {
	r := make(Row, len(types))
	runLen := -1
	for i, t := range types {
		if t == IntArray && runLen >= 0 {
			a := make([]int32, runLen)
			for j := range a {
				a[j] = int32(rng.Uint32())
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
			runLen = len(a)
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

// repeat returns n copies of v.
func repeat(v int32, n int) []int32 {
	a := make([]int32, n)
	for i := range a {
		a[i] = v
	}
	return a
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
		{Int64, IntRuns, IntArray, IntArray},              // lout/lin as stored
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
		rowsEqual(t, in, row)
	}
}

// TestSegCodecMatchesRowCodec cross-checks the two codecs: the executor's
// row key (EncodeRow) of a row read back from a segment is the key of the row
// that was stored, so grouping over stored rows sees the values written.
func TestSegCodecMatchesRowCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, types := range [][]Type{
		{Int64, IntRuns, IntArray, IntArray},
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
			if want, key := EncodeRow(nil, in), EncodeRow(nil, got); string(key) != string(want) {
				t.Fatalf("row %v reads back with key %x, stored with %x", in, key, want)
			}
		}
	}
}

// TestSegCodecRejectsIneligible pins what the codec has no encoding for: a
// NULL value, a value of another type than its column's and a descending
// array in a runs column refuse to encode, and a schema naming no storable
// column type refuses to decode.
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
// — past either end, or by a delta that wraps int64 — are corrupt, and both
// decoders refuse them with storage.ErrCorruptSegment instead of narrowing.
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
	decodeBoth := func(enc []byte) (Row, []int32, error, error) {
		got, _, rowErr := DecodeSegRowInto(enc, types, nil, nil)
		elems, vecErr := DecodeSegRowVectors(enc, types, make([]int64, 1), make([]int32, 0, 8), make([]int32, 1))
		return got, elems, rowErr, vecErr
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
		_, _, rowErr, vecErr := decodeBoth(row(c.deltas...))
		for name, err := range map[string]error{"DecodeSegRowInto": rowErr, "DecodeSegRowVectors": vecErr} {
			if !errors.Is(err, storage.ErrCorruptSegment) || !strings.Contains(err.Error(), "outside int32") {
				t.Errorf("%s: %s = %v, want ErrCorruptSegment naming int32", c.name, name, err)
			}
		}
	}
	got, elems, rowErr, vecErr := decodeBoth(row(math.MaxInt32, math.MinInt32-math.MaxInt32, math.MaxInt32))
	want := []int32{math.MaxInt32, math.MinInt32, -1}
	if rowErr != nil || vecErr != nil || !slices.Equal(got[1].A, want) || !slices.Equal(elems, want) {
		t.Errorf("the int32 extremes decode to %v, %v (%v, %v); want %v from both", got, elems, rowErr, vecErr, want)
	}
}

// TestSegDecodeRunsFailClosed pins the runs form of a label's hubs: an
// empty array, one run and runs at both ends of int32 decode, by both
// decoders, to the arrays they spell; a zero count, a count past the length,
// a run that does not ascend past the one before it (a repeated hub, or a
// lower one), a value one past either end of int32 and a row cut inside a run
// are refused by both with storage.ErrCorruptSegment.
func TestSegDecodeRunsFailClosed(t *testing.T) {
	types := []Type{Int64, IntRuns, IntArray, IntArray}
	// row encodes a label row of n tuples whose hubs are the (delta, count)
	// pairs and whose siblings hold n zeros each.
	row := func(n int, pairs ...int64) []byte {
		b := binary.AppendUvarint(binary.AppendVarint(nil, 7), uint64(n))
		for i, x := range pairs {
			if i%2 == 0 {
				b = binary.AppendVarint(b, x)
			} else {
				b = binary.AppendUvarint(b, uint64(x))
			}
		}
		for range 2 {
			b = binary.AppendUvarint(b, uint64(n))
			b = append(b, make([]byte, n)...)
		}
		return b
	}
	decodeBoth := func(enc []byte) ([]int32, []int32, error, error) {
		got, _, rowErr := DecodeSegRowInto(enc, types, nil, nil)
		ends := make([]int32, 3)
		elems, vecErr := DecodeSegRowVectors(enc, types, make([]int64, 1), make([]int32, 0, 64), ends)
		var hubs []int32
		if rowErr == nil {
			hubs = got[1].A
		}
		if vecErr == nil {
			elems = elems[:ends[0]]
		}
		return hubs, elems, rowErr, vecErr
	}
	for _, c := range []struct {
		name string
		enc  []byte
		want []int32
	}{
		{"empty", row(0), []int32{}},
		{"one run", row(3, 5, 3), []int32{5, 5, 5}},
		{"three runs", row(6, 2, 3, 7, 1, 31, 2), []int32{2, 2, 2, 9, 40, 40}},
		{"the int32 ends", row(3, math.MinInt32, 2, math.MaxInt32-math.MinInt32, 1), []int32{math.MinInt32, math.MinInt32, math.MaxInt32}},
	} {
		hubs, elems, rowErr, vecErr := decodeBoth(c.enc)
		if rowErr != nil || vecErr != nil || !slices.Equal(hubs, c.want) || !slices.Equal(elems, c.want) {
			t.Errorf("%s: hubs decode to %v and %v (%v, %v); want %v from both", c.name, hubs, elems, rowErr, vecErr, c.want)
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
		_, _, rowErr, vecErr := decodeBoth(c.enc)
		for name, err := range map[string]error{"DecodeSegRowInto": rowErr, "DecodeSegRowVectors": vecErr} {
			if !errors.Is(err, storage.ErrCorruptSegment) {
				t.Errorf("%s: %s = %v, want ErrCorruptSegment", c.name, name, err)
			}
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
// fuzz-chosen schema, runs columns included: any outcome is fine except a
// panic, and whatever the decoder accepts must re-encode and decode back to
// the same row. The comparison is semantic, not byte-for-byte — non-canonical
// varints in the input decode fine but re-encode shorter — so the canonical
// re-encoding is additionally required to be a fixed point of the codec. The
// one row that re-encodes yet does not decode is one whose runs column is
// longer than the canonical bytes after its length: the decoders bound a
// length by them, and no run-ordered table stores such a row. Under an
// all-integer schema the vector decoder must agree with the row decoder on
// every input (checkSegVectors).
func FuzzSegCodecRoundTrip(f *testing.F) {
	// The schema is 1..7 columns (ncols' low three bits) whose kinds are read
	// two bits at a time from kinds, lowest column first; with ncols' bit 3
	// set the first INT[] column is stored as runs.
	fuzzKinds := [4]Type{Int64, IntArray, Float64, Text}
	const runsBit = 0x08
	schema := func(ncols byte, kinds uint16) []Type {
		types := make([]Type, int(ncols&0x07)+1)
		runs := ncols&runsBit != 0
		for i := range types {
			types[i] = fuzzKinds[kinds>>(2*i)&3]
			if runs && types[i] == IntArray {
				types[i], runs = IntRuns, false
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
	// A label row as lout and lin store it — (v, hubs as runs, tds, tas) —
	// and raw ones whose runs are given as (delta, count) pairs: an empty
	// array, one run, a zero count, a count past the length, a repeated hub
	// (a delta of 0 after the first run), a run at each end of int32 and one
	// past each end.
	const label = runsBit | 3
	const labelKinds = 0b01010100
	seedAs(runsBit, Row{NewInt(7), NewIntArray([]int32{2, 2, 2, 9, 40, 40}), NewIntArray([]int32{1, 2, 3, 1, 5, 6}), NewIntArray([]int32{4, 5, 6, 2, 9, 9})})
	runs := func(n int, pairs ...int64) []byte {
		b := binary.AppendUvarint(binary.AppendVarint(nil, 7), uint64(n))
		for i, x := range pairs {
			if i%2 == 0 {
				b = binary.AppendVarint(b, x)
			} else {
				b = binary.AppendUvarint(b, uint64(x))
			}
		}
		for range 2 { // the siblings: n elements of 1 each
			b = binary.AppendUvarint(b, uint64(n))
			for j := 0; j < n; j++ {
				b = binary.AppendVarint(b, int64(j&1)*2-1)
			}
		}
		return b
	}
	f.Add(byte(label), uint16(labelKinds), runs(0))
	f.Add(byte(label), uint16(labelKinds), runs(3, 5, 3))
	f.Add(byte(label), uint16(labelKinds), runs(3, 5, 0, 5, 3))
	f.Add(byte(label), uint16(labelKinds), runs(3, 5, 4))
	f.Add(byte(label), uint16(labelKinds), runs(3, 5, 1, 0, 2))
	f.Add(byte(label), uint16(labelKinds), runs(2, math.MinInt32, 1, math.MaxInt32-math.MinInt32, 1))
	f.Add(byte(label), uint16(labelKinds), runs(1, math.MaxInt32+1, 1))
	f.Add(byte(label), uint16(labelKinds), runs(1, math.MinInt32-1, 1))
	f.Add(byte(label), uint16(labelKinds), runs(2, math.MaxInt32, 1, 1, 1))
	f.Fuzz(func(t *testing.T, ncols byte, kinds uint16, data []byte) {
		types := schema(ncols, kinds)
		intsOnly, runsAt := true, -1
		for i, typ := range types {
			intsOnly = intsOnly && (typ == Int64 || typ == IntArray || typ == IntRuns)
			if typ == IntRuns {
				runsAt = i
			}
		}
		row, _, err := DecodeSegRowInto(data, types, nil, nil)
		if intsOnly {
			checkSegVectors(t, data, types, row, err)
		}
		if err != nil {
			return // rejected input: fine, as long as it didn't panic
		}
		enc, err := EncodeSegRow(nil, types, row)
		if err != nil {
			t.Fatalf("decoded row refuses to re-encode: %v (row %v)", err, row)
		}
		again, _, err := DecodeSegRowInto(enc, types, nil, nil)
		if runsAt >= 0 {
			head, err := EncodeSegRow(nil, types[:runsAt], row[:runsAt])
			if err != nil {
				t.Fatal(err)
			}
			n := len(row[runsAt].A)
			if after := len(enc) - len(head) - len(binary.AppendUvarint(nil, uint64(n))); n > after {
				if err == nil {
					t.Fatalf("a runs column of %d elements with %d bytes after its length decodes from %x", n, after, enc)
				}
				return
			}
		}
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v (row %v)", err, row)
		}
		rowsEqual(t, row, again)
		// The canonical encoding must be a fixed point: encoding the second
		// decode reproduces it byte-for-byte.
		enc2, err := EncodeSegRow(nil, types, again)
		if err != nil {
			t.Fatal(err)
		}
		if string(enc2) != string(enc) {
			t.Fatalf("canonical encoding not a fixed point:\n first %x\nsecond %x", enc, enc2)
		}
		if intsOnly {
			checkSegVectors(t, enc, types, row, nil)
		}
	})
}

// checkSegVectors holds DecodeSegRowVectors to DecodeSegRowInto on one
// encoded all-integer row, which the row decoder decoded to want or rejected
// with rowErr. A rejected row must be rejected again, whatever room the
// vector has. An accepted one must fill exactly as many elements as want's
// arrays hold — the count a segment's header records, which sizes the
// vector — with want's values, and be refused with one slot fewer.
func checkSegVectors(t *testing.T, enc []byte, types []Type, want Row, rowErr error) {
	t.Helper()
	decode := func(capacity int) ([]int64, []int32, []int32, error) {
		scalars, ends := make([]int64, len(types)), make([]int32, len(types))
		elems, err := DecodeSegRowVectors(enc, types, scalars, make([]int32, 0, capacity), ends)
		return scalars, elems, ends, err
	}
	if rowErr != nil {
		// Every array's length is bounded by the bytes after it, so no row
		// holds more elements than twice its bytes.
		if _, _, _, err := decode(2 * len(enc)); err == nil {
			t.Fatalf("DecodeSegRowVectors accepts %x, which DecodeSegRowInto rejects: %v", enc, rowErr)
		}
		return
	}
	n := 0
	for _, v := range want {
		n += len(v.A)
	}
	scalars, elems, ends, err := decode(n)
	if err != nil {
		t.Fatalf("DecodeSegRowVectors rejects a row the decoder accepts: %v (%x)", err, enc)
	}
	if len(elems) != n {
		t.Fatalf("DecodeSegRowVectors(%x) filled %d elements, want %d", enc, len(elems), n)
	}
	s, a, start := 0, 0, int32(0)
	for i, v := range want {
		var got Value
		if v.T == Int64 {
			got = NewInt(scalars[s])
			s++
		} else {
			got = NewIntArray(elems[start:ends[a]])
			start = ends[a]
			a++
		}
		if !Equal(got, v) {
			t.Fatalf("DecodeSegRowVectors(%x): value %d = %v, want %v", enc, i, got, v)
		}
	}
	// One slot short and the row must be refused, not grown into.
	if n > 0 {
		if _, _, _, err := decode(n - 1); err == nil {
			t.Fatalf("DecodeSegRowVectors(%x) fit %d elements into %d slots", enc, n, n-1)
		}
	}
}
