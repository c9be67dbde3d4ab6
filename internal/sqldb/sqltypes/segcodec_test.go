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
// additionally required to be a fixed point of the codec.
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
		row, arena, err := DecodeSegRowInto(data, types, nil, nil)
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
		_ = arena
		// The invariant the vector-size prediction rests on, for the tables it
		// is applied to: every byte of an accepted all-integer row belongs to
		// one varint, so its terminators number the scalars + array length
		// prefixes + elements — canonical or not — and the column decoder sees
		// the same values as the row decoder.
		if intsOnly {
			checkSegVectors(t, data, types, row)
			checkSegVectors(t, enc, types, row)
		}
	})
}

// checkSegVectors runs the whole-table helpers over one encoded row known to
// decode to want.
func checkSegVectors(t *testing.T, enc []byte, types []Type, want Row) {
	t.Helper()
	varints := 0
	elems := make([]int, len(types))
	for i, v := range want {
		varints++
		if v.T == IntArray {
			varints += len(v.A)
			elems[i] = len(v.A)
		}
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
	counted := make([]int, len(types))
	if err := CountSegRow(enc, types, counted); err != nil {
		t.Fatalf("CountSegRow rejects a row the decoder accepts: %v (%x)", err, enc)
	}
	cols := make([][]int64, len(types))
	for i, typ := range types {
		if counted[i] != elems[i] {
			t.Fatalf("CountSegRow(%x): column %d has %d elements, want %d", enc, i, counted[i], elems[i])
		}
		if typ == Int64 {
			counted[i] = 1
		}
		cols[i] = make([]int64, 0, counted[i])
	}
	if err := DecodeSegRowColumns(enc, types, cols); err != nil {
		t.Fatalf("DecodeSegRowColumns rejects a row the decoder accepts: %v (%x)", err, enc)
	}
	for i, v := range want {
		got := NewIntArray(cols[i])
		if v.T == Int64 {
			got = NewInt(cols[i][0])
		}
		if len(cols[i]) != cap(cols[i]) || !Equal(got, v) {
			t.Fatalf("DecodeSegRowColumns(%x): column %d = %v, want %v", enc, i, cols[i], v)
		}
	}
	// One slot short anywhere and the row must be refused, not grown into.
	for i := range cols {
		if cap(cols[i]) == 0 {
			continue
		}
		short := make([][]int64, len(cols))
		for j := range cols {
			short[j] = make([]int64, 0, cap(cols[j]))
		}
		short[i] = make([]int64, 0, cap(cols[i])-1)
		if err := DecodeSegRowColumns(enc, types, short); err == nil {
			t.Fatalf("DecodeSegRowColumns(%x) fit column %d into %d slots", enc, i, cap(short[i]))
		}
	}
}
