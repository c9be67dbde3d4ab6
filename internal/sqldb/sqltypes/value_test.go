package sqltypes

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		NullType: "NULL", Int64: "BIGINT", Float64: "DOUBLE", Text: "TEXT", IntArray: "BIGINT[]",
		Type(99): "Type(99)",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{NewInt(-42), "-42"},
		{NewFloat(2.5), "2.5"},
		{NewText("hi"), "hi"},
		{NewIntArray([]int64{1, 2, 3}), "{1,2,3}"},
		{NewIntArray(nil), "{}"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v.T, got, c.want)
		}
	}
}

func TestAsIntAsFloat(t *testing.T) {
	if v, err := NewInt(7).AsInt(); err != nil || v != 7 {
		t.Errorf("AsInt(7) = %d, %v", v, err)
	}
	if v, err := NewFloat(7.9).AsInt(); err != nil || v != 7 {
		t.Errorf("AsInt(7.9) = %d, %v (truncation expected)", v, err)
	}
	if _, err := NewText("x").AsInt(); err == nil {
		t.Error("AsInt(text) succeeded")
	}
	if v, err := NewInt(3).AsFloat(); err != nil || v != 3.0 {
		t.Errorf("AsFloat(3) = %v, %v", v, err)
	}
	if _, err := Null.AsFloat(); err == nil {
		t.Error("AsFloat(NULL) succeeded")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(2), NewFloat(2.5), -1},
		{NewFloat(2.5), NewInt(2), 1},
		{Null, NewInt(0), -1},
		{NewInt(0), Null, 1},
		{Null, Null, 0},
		{NewText("a"), NewText("b"), -1},
		{NewIntArray([]int64{1, 2}), NewIntArray([]int64{1, 3}), -1},
		{NewIntArray([]int64{1, 2}), NewIntArray([]int64{1, 2, 0}), -1},
		{NewIntArray([]int64{1, 2}), NewIntArray([]int64{1, 2}), 0},
	}
	for _, c := range cases {
		got, err := Compare(c.a, c.b)
		if err != nil {
			t.Errorf("Compare(%v,%v): %v", c.a, c.b, err)
			continue
		}
		if got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if _, err := Compare(NewText("x"), NewInt(1)); err == nil {
		t.Error("Compare(text,int) succeeded")
	}
	if _, err := Compare(NewText("x"), NewIntArray(nil)); err == nil {
		t.Error("Compare(text,array) succeeded")
	}
}

// typesOf returns the column types of a NULL-free row.
func typesOf(r Row) []Type {
	types := make([]Type, len(r))
	for i, v := range r {
		types[i] = v.T
	}
	return types
}

// sameValue is bit-exact equality: NaN payloads and the sign of zero count,
// invalid UTF-8 is compared byte for byte, nil and empty arrays are equal.
func sameValue(a, b Value) bool {
	return a.T == b.T && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) &&
		a.S == b.S && reflect.DeepEqual(normalize(a).A, normalize(b).A)
}

// normalize maps empty and nil arrays to a canonical form for comparison.
func normalize(v Value) Value {
	if v.T == IntArray && len(v.A) == 0 {
		v.A = nil
	}
	return v
}

// TestEncodeDecodeRoundTrip round-trips fixed rows of every column kind
// through the segment codec, the encoding every stored row has.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	multiPage := strings.Repeat("0123456789abcdef", 2048) // 32 KiB: four pages of text
	rows := []Row{
		{},
		{NewInt(0), NewInt(-1), NewInt(math.MaxInt64), NewInt(math.MinInt64)},
		{NewFloat(3.14159), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1))},
		{NewFloat(0), NewFloat(math.Copysign(0, -1))},
		{NewFloat(math.NaN()), NewFloat(math.Float64frombits(0x7ff8dead0000beef)), NewFloat(math.Float64frombits(0xfff0000000000001))},
		{NewText(""), NewText("hello, κόσμε"), NewText("\xff\xfe not utf-8 \x80"), NewText(multiPage)},
		{NewIntArray(nil), NewIntArray([]int64{5}), NewIntArray([]int64{100, 90, 80, -3})},
		{NewInt(1), NewFloat(30.2672), NewText("x"), NewIntArray([]int64{36000, 36100, 39600})},
	}
	for i, r := range rows {
		buf, err := EncodeSegRow(nil, r)
		if err != nil {
			t.Fatalf("row %d: EncodeSegRow: %v", i, err)
		}
		got, _, err := DecodeSegRowInto(buf, typesOf(r), nil, nil)
		if err != nil {
			t.Fatalf("row %d: DecodeSegRowInto: %v", i, err)
		}
		if len(got) != len(r) {
			t.Fatalf("row %d: got %d values, want %d", i, len(got), len(r))
		}
		for j := range r {
			if !sameValue(got[j], r[j]) {
				t.Errorf("row %d value %d: got %+v, want %+v", i, j, got[j], r[j])
			}
		}
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	row := Row{NewInt(12345), NewText("abc"), NewFloat(2.5), NewIntArray([]int64{1, 2, 3})}
	types := typesOf(row)
	good, err := EncodeSegRow(nil, row)
	if err != nil {
		t.Fatal(err)
	}
	// Every value needs at least one byte and every length is checked against
	// what is left, so each true prefix must error, never panic.
	for i := 0; i < len(good); i++ {
		if _, _, err := DecodeSegRowInto(good[:i], types, nil, nil); err == nil {
			t.Errorf("DecodeSegRowInto(prefix %d/%d) succeeded", i, len(good))
		}
	}
	// Trailing garbage.
	if _, _, err := DecodeSegRowInto(append(append([]byte(nil), good...), 0xFF), types, nil, nil); err == nil {
		t.Error("DecodeSegRowInto with trailing bytes succeeded")
	}
	// A text length prefix past the end of the row, small and huge.
	for _, bad := range [][]byte{
		{0x04, 'a', 'b', 'c'},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 'a'},
	} {
		if _, _, err := DecodeSegRowInto(bad, []Type{Text}, nil, nil); err == nil {
			t.Errorf("text length past the end of %x accepted", bad)
		}
	}
	// A DOUBLE is exactly eight bytes.
	if _, _, err := DecodeSegRowInto(make([]byte, 7), []Type{Float64}, nil, nil); err == nil {
		t.Error("seven-byte DOUBLE accepted")
	}
}

// TestEncodeDecodeQuick is a property test over random NULL-free rows of
// random schemas.
func TestEncodeDecodeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := make(Row, rng.Intn(8))
		for i := range r {
			switch rng.Intn(4) {
			case 0:
				r[i] = NewInt(rng.Int63() - rng.Int63())
			case 1:
				r[i] = NewFloat(math.Float64frombits(rng.Uint64()))
			case 2:
				b := make([]byte, rng.Intn(20))
				rng.Read(b)
				r[i] = NewText(string(b))
			default:
				a := make([]int64, rng.Intn(50))
				for j := range a {
					a[j] = rng.Int63n(1 << 40)
				}
				r[i] = NewIntArray(a)
			}
		}
		buf, err := EncodeSegRow(nil, r)
		if err != nil {
			return false
		}
		got, _, err := DecodeSegRowInto(buf, typesOf(r), nil, nil)
		if err != nil || len(got) != len(r) {
			return false
		}
		for i := range r {
			if !sameValue(got[i], r[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRowClone(t *testing.T) {
	r := Row{NewIntArray([]int64{1, 2}), NewText("a")}
	c := r.Clone()
	c[0].A[0] = 99
	if r[0].A[0] != 1 {
		t.Error("Clone shares array backing store")
	}
}

func TestCompareArraysEqualPrefixLonger(t *testing.T) {
	got, err := Compare(NewIntArray([]int64{1, 2, 3}), NewIntArray([]int64{1, 2}))
	if err != nil || got != 1 {
		t.Errorf("Compare longer-vs-prefix = %d, %v", got, err)
	}
}

// TestDecodeRowInto pins DecodeSegRowInto's buffer-reuse contract on rows of
// mixed column kinds.
func TestDecodeRowInto(t *testing.T) {
	rows := []Row{
		{NewInt(1), NewIntArray([]int64{3, 1, 4, 1, 5}), NewIntArray([]int64{9, 2, 6})},
		{NewInt(2), NewIntArray(nil), NewIntArray([]int64{-7})},
		{NewInt(3), NewText("x"), NewFloat(2.5)},
	}
	encode := func(r Row) []byte {
		buf, err := EncodeSegRow(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}

	// Reused buffers round-trip every row; the arena is append-only, so
	// arrays decoded in earlier calls keep their contents afterwards.
	var scratchRow Row
	var arena []int64
	var decoded []Row
	for i, r := range rows {
		got, grown, err := DecodeSegRowInto(encode(r), typesOf(r), scratchRow, arena)
		if err != nil {
			t.Fatalf("row %d: DecodeSegRowInto: %v", i, err)
		}
		scratchRow, arena = got, grown
		if len(got) != len(r) {
			t.Fatalf("row %d: got %d values, want %d", i, len(got), len(r))
		}
		for j := range r {
			if !sameValue(got[j], r[j]) {
				t.Errorf("row %d value %d: got %+v, want %+v", i, j, got[j], r[j])
			}
		}
		// Keep only the array values: the Row header is recycled next call.
		keep := make(Row, len(got))
		copy(keep, got)
		decoded = append(decoded, keep)
	}
	for i, r := range rows {
		for j := range r {
			if r[j].T != IntArray {
				continue
			}
			if !sameValue(decoded[i][j], r[j]) {
				t.Errorf("retained row %d value %d clobbered: got %+v, want %+v",
					i, j, decoded[i][j], r[j])
			}
		}
	}

	// Truncating the arena recycles the backing store.
	buf := encode(rows[0])
	got, grown, err := DecodeSegRowInto(buf, typesOf(rows[0]), scratchRow, arena[:0])
	if err != nil {
		t.Fatal(err)
	}
	if len(grown) == 0 || &grown[0] != &arena[:1][0] {
		t.Error("truncated arena did not reuse its backing store")
	}
	if got[1].A[0] != 3 {
		t.Errorf("reuse decode got %v", got[1].A)
	}

	// Corrupt input is rejected.
	if _, _, err := DecodeSegRowInto(buf[:len(buf)-1], typesOf(rows[0]), nil, nil); err == nil {
		t.Error("truncated buffer accepted")
	}
}
