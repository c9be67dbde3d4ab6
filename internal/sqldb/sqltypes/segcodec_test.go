package sqltypes

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// randSegRow draws a row of the given column types, with the pathological
// shapes (empty arrays, single-element arrays, max-magnitude deltas, NaN and
// signed-zero doubles, empty and non-UTF-8 text) over-represented.
func randSegRow(rng *rand.Rand, types []Type) Row {
	r := make(Row, len(types))
	for i, t := range types {
		switch t {
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
			var a []int64
			switch rng.Intn(5) {
			case 0: // empty label run
				a = []int64{}
			case 1: // single-label stop
				a = []int64{rng.Int63n(1 << 32)}
			case 2: // max-int64 deltas: alternating extremes
				n := 1 + rng.Intn(6)
				a = make([]int64, n)
				for j := range a {
					if j%2 == 0 {
						a[j] = math.MaxInt64
					} else {
						a[j] = math.MinInt64
					}
				}
			default: // typical sorted label run
				n := rng.Intn(64)
				a = make([]int64, n)
				v := int64(0)
				for j := range a {
					v += rng.Int63n(1 << 20)
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
// codec, covering empty runs, single-label stops and max-int64 deltas.
func TestSegCodecRoundTripFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(1316))
	shapes := [][]Type{
		{Int64, IntArray, IntArray, IntArray},             // lout/lin
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
	var arena []int64
	for iter := 0; iter < 2000; iter++ {
		types := shapes[rng.Intn(len(shapes))]
		in := randSegRow(rng, types)
		var err error
		buf, err = EncodeSegRow(buf[:0], in)
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
		{Int64, IntArray, IntArray, IntArray},
		{Int64, Text, Float64, Float64},
	} {
		for iter := 0; iter < 200; iter++ {
			in := randSegRow(rng, types)
			seg, err := EncodeSegRow(nil, in)
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
// NULL value refuses to encode, and a schema naming no storable column type
// refuses to decode.
func TestSegCodecRejectsIneligible(t *testing.T) {
	for _, r := range []Row{
		{Null},
		{NewInt(1), Null},
		{NewText("x"), NewFloat(1.5), Null},
	} {
		if _, err := EncodeSegRow(nil, r); err == nil {
			t.Fatalf("EncodeSegRow(%v) succeeded, want error", r)
		}
	}
	for _, typ := range []Type{NullType, Type(9)} {
		if _, _, err := DecodeSegRowInto(nil, []Type{typ}, nil, nil); err == nil {
			t.Fatalf("DecodeSegRowInto with a %s column succeeded, want error", typ)
		}
	}
	// Trailing garbage after a well-formed row must be rejected.
	buf, err := EncodeSegRow(nil, Row{NewInt(9)})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeSegRowInto(append(buf, 0x01), []Type{Int64}, nil, nil); err == nil {
		t.Fatal("trailing bytes accepted, want error")
	}
}

// TestSegDecodeArenaAliasing is the aliasing-hostile test: arrays carved out
// of the arena for row A must stay intact while row B decodes into the same
// growing arena, across reallocation boundaries.
func TestSegDecodeArenaAliasing(t *testing.T) {
	types := []Type{Int64, IntArray}
	mk := func(base int64, n int) Row {
		a := make([]int64, n)
		for i := range a {
			a[i] = base + int64(i)
		}
		return Row{NewInt(base), NewIntArray(a)}
	}
	rowA := mk(100, 48) // large enough to force the first growth
	rowB := mk(9000, 512)

	bufA, err := EncodeSegRow(nil, rowA)
	if err != nil {
		t.Fatal(err)
	}
	bufB, err := EncodeSegRow(nil, rowB)
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
		if v != 100+int64(i) {
			t.Fatalf("row A array clobbered at %d: got %d", i, v)
		}
	}
	for i, v := range decB[1].A {
		if v != 9000+int64(i) {
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
// fuzz-chosen schema: any outcome is fine except a panic, and whatever the
// decoder accepts must re-encode and decode back to the same row. The
// comparison is semantic, not byte-for-byte — non-canonical varints in the
// input decode fine but re-encode shorter — so the canonical re-encoding is
// additionally required to be a fixed point of the codec. Under an
// all-integer schema the vector decoder must agree with it on every input
// (checkSegVectors).
func FuzzSegCodecRoundTrip(f *testing.F) {
	// The schema is 1..7 columns (ncols' low three bits) whose kinds are read
	// two bits at a time from kinds, lowest column first.
	fuzzKinds := [4]Type{Int64, IntArray, Float64, Text}
	seed := func(r Row) {
		buf, err := EncodeSegRow(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		kinds := uint16(0)
		for i, v := range r {
			for k, typ := range fuzzKinds {
				if v.T == typ {
					kinds |= uint16(k) << (2 * i)
				}
			}
		}
		f.Add(byte(len(r)-1), kinds, buf)
	}
	seed(Row{NewInt(42)})
	seed(Row{NewInt(7), NewIntArray([]int64{1, 5, 5, 9})})
	seed(Row{NewIntArray(nil)})
	// Varints of 1, 2, 3, 4 and 10 bytes, as scalars and as deltas.
	seed(Row{NewInt(5), NewInt(1000), NewInt(100000), NewInt(10000000), NewInt(math.MinInt64)})
	seed(Row{NewIntArray([]int64{5, 1005, 101005, 10101005, math.MaxInt64})})
	// Deltas that wrap: MaxInt64 and MinInt64 alternating.
	seed(Row{NewInt(math.MaxInt64), NewIntArray([]int64{math.MaxInt64, math.MinInt64, math.MaxInt64, 0})})
	// Empty arrays, and two arrays of different lengths in one row.
	seed(Row{NewInt(1), NewIntArray([]int64{}), NewIntArray([]int64{})})
	seed(Row{NewInt(7), NewIntArray([]int64{1, 2, 3}), NewIntArray([]int64{9})})
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
	f.Fuzz(func(t *testing.T, ncols byte, kinds uint16, data []byte) {
		types := make([]Type, int(ncols&0x07)+1)
		intsOnly := true
		for i := range types {
			types[i] = fuzzKinds[kinds>>(2*i)&3]
			intsOnly = intsOnly && (types[i] == Int64 || types[i] == IntArray)
		}
		row, _, err := DecodeSegRowInto(data, types, nil, nil)
		if intsOnly {
			checkSegVectors(t, data, types, row, err)
		}
		if err != nil {
			return // rejected input: fine, as long as it didn't panic
		}
		enc, err := EncodeSegRow(nil, row)
		if err != nil {
			t.Fatalf("decoded row refuses to re-encode: %v (row %v)", err, row)
		}
		again, _, err := DecodeSegRowInto(enc, types, nil, nil)
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v (row %v)", err, row)
		}
		rowsEqual(t, row, again)
		// The canonical encoding must be a fixed point: encoding the second
		// decode reproduces it byte-for-byte.
		enc2, err := EncodeSegRow(nil, again)
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
// vector has. An accepted one rests the vector-size prediction on its one
// property — every byte belongs to one varint, so the terminators number the
// scalars + array length prefixes + elements, canonical or not — and must
// fill exactly CountSegVarints − columns elements with want's values, and be
// refused with one slot fewer.
func checkSegVectors(t *testing.T, enc []byte, types []Type, want Row, rowErr error) {
	t.Helper()
	decode := func(capacity int) ([]int64, []int64, []int32, error) {
		scalars, ends := make([]int64, len(types)), make([]int32, len(types))
		elems, err := DecodeSegRowVectors(enc, types, scalars, make([]int64, 0, capacity), ends)
		return scalars, elems, ends, err
	}
	if rowErr != nil {
		if _, _, _, err := decode(len(enc)); err == nil {
			t.Fatalf("DecodeSegRowVectors accepts %x, which DecodeSegRowInto rejects: %v", enc, rowErr)
		}
		return
	}
	varints := 0
	for _, v := range want {
		varints += 1 + len(v.A)
	}
	if got := CountSegVarints(enc); got != varints {
		t.Fatalf("CountSegVarints(%x) = %d, row %v holds %d varints", enc, got, want, varints)
	}
	// Counted chunk by chunk the total is the same wherever the cut falls.
	for cut := 0; cut <= len(enc); cut++ {
		if got := CountSegVarints(enc[:cut]) + CountSegVarints(enc[cut:]); got != varints {
			t.Fatalf("CountSegVarints(%x) cut at %d = %d, want %d", enc, cut, got, varints)
		}
	}
	n := varints - len(types)
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
