// Package sqltypes defines the value system of the embedded SQL engine used
// by PTLDB: 64-bit integers, double-precision floats, text, arrays of 32-bit
// integers (PostgreSQL's INT[], the type of the hubs/tds/tas columns: every
// element is a stop id, a trip id or a seconds-of-day time, all 32-bit in
// the timetable), and SQL NULL. An array element read as a scalar — UNNEST —
// widens to a BIGINT. It also provides the segment row codec of the storage
// engine and the executor's row-key encoding.
package sqltypes

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Type enumerates the supported column types.
type Type uint8

const (
	// NullType is the type of the SQL NULL literal before coercion.
	NullType Type = iota
	// Int64 is BIGINT.
	Int64
	// Float64 is DOUBLE PRECISION.
	Float64
	// Text is TEXT.
	Text
	// IntArray is INT[]: an array of 32-bit integers.
	IntArray
	// IntRuns is the run form of a non-decreasing INT[]: the column tag of a
	// segment column whose arrays are stored as runs of equal elements
	// (segcodec.go), and the type of the value the row decoder reads such a
	// column into. Its A holds two int32s per run: the R run values, which
	// ascend strictly, then the R run ends, where ends[r] is the index one
	// past run r in the expanded array, so ends ascend strictly and the last
	// is its length (SplitRuns, ExpandRuns). Only the scratch reads of a
	// table return it, for the fused kernels; the general executor's rows
	// (LookupPK, Scan) hold the expanded IntArray, and no SQL operator
	// accepts it.
	IntRuns
	// IntRunGaps and IntRunOffsets are the column tags of a run-ordered
	// table's two sibling columns (segcodec.go): INT[] columns as long as the
	// IntRuns column before them and stored per run of it, IntRunGaps as
	// its runs' first values and bit-packed gaps, IntRunOffsets as bit-packed
	// offsets from the IntRunGaps column before it. They are storage-only:
	// the row decoder reads such a column into a plain IntArray value.
	IntRunGaps
	IntRunOffsets
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case NullType:
		return "NULL"
	case Int64:
		return "BIGINT"
	case Float64:
		return "DOUBLE"
	case Text:
		return "TEXT"
	case IntArray:
		return "INT[]"
	case IntRuns:
		return "INT[] runs"
	case IntRunGaps:
		return "INT[] run gaps"
	case IntRunOffsets:
		return "INT[] run offsets"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Value is one SQL value: a tagged union. The zero Value is NULL.
type Value struct {
	T Type
	I int64
	F float64
	S string
	A []int32
}

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns a BIGINT value.
func NewInt(v int64) Value { return Value{T: Int64, I: v} }

// NewFloat returns a DOUBLE value.
func NewFloat(v float64) Value { return Value{T: Float64, F: v} }

// NewText returns a TEXT value.
func NewText(s string) Value { return Value{T: Text, S: s} }

// NewIntArray returns an INT[] value. The slice is not copied.
func NewIntArray(a []int32) Value { return Value{T: IntArray, A: a} }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.T == NullType }

// AsInt returns the integer content, coercing DOUBLE by truncation. It
// errors on NULL and non-numeric types.
func (v Value) AsInt() (int64, error) {
	switch v.T {
	case Int64:
		return v.I, nil
	case Float64:
		return int64(v.F), nil
	default:
		return 0, fmt.Errorf("sqltypes: %s is not numeric", v.T)
	}
}

// AsFloat returns the float content of a numeric value.
func (v Value) AsFloat() (float64, error) {
	switch v.T {
	case Int64:
		return float64(v.I), nil
	case Float64:
		return v.F, nil
	default:
		return 0, fmt.Errorf("sqltypes: %s is not numeric", v.T)
	}
}

// String renders the value for display, using PostgreSQL-style array
// braces.
func (v Value) String() string {
	switch v.T {
	case NullType:
		return "NULL"
	case Int64:
		return strconv.FormatInt(v.I, 10)
	case Float64:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case Text:
		return v.S
	case IntArray:
		var b strings.Builder
		b.WriteByte('{')
		for i, x := range v.A {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatInt(int64(x), 10))
		}
		b.WriteByte('}')
		return b.String()
	default:
		return "?"
	}
}

// Compare orders two values: NULL sorts before everything (as in PostgreSQL
// with NULLS FIRST on ascending sorts it would be last; we use first for
// determinism — the PTLDB queries never sort NULLs), numbers numerically
// across Int64/Float64, text lexicographically, arrays element-wise. It
// returns -1, 0 or 1 and an error on incomparable types.
func Compare(a, b Value) (int, error) {
	if a.IsNull() || b.IsNull() {
		switch {
		case a.IsNull() && b.IsNull():
			return 0, nil
		case a.IsNull():
			return -1, nil
		default:
			return 1, nil
		}
	}
	if (a.T == Int64 || a.T == Float64) && (b.T == Int64 || b.T == Float64) {
		if a.T == Int64 && b.T == Int64 {
			switch {
			case a.I < b.I:
				return -1, nil
			case a.I > b.I:
				return 1, nil
			default:
				return 0, nil
			}
		}
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if a.T != b.T {
		return 0, fmt.Errorf("sqltypes: cannot compare %s with %s", a.T, b.T)
	}
	switch a.T {
	case Text:
		return strings.Compare(a.S, b.S), nil
	case IntArray:
		n := len(a.A)
		if len(b.A) < n {
			n = len(b.A)
		}
		for i := 0; i < n; i++ {
			if a.A[i] != b.A[i] {
				if a.A[i] < b.A[i] {
					return -1, nil
				}
				return 1, nil
			}
		}
		switch {
		case len(a.A) < len(b.A):
			return -1, nil
		case len(a.A) > len(b.A):
			return 1, nil
		default:
			return 0, nil
		}
	default:
		return 0, fmt.Errorf("sqltypes: cannot compare %s", a.T)
	}
}

// Equal reports deep equality with numeric cross-type comparison.
func Equal(a, b Value) bool {
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// Row is one tuple of values.
type Row []Value

// Clone deep-copies the row (array contents included).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	for i, v := range r {
		if v.T == IntArray || v.T == IntRuns {
			v.A = append([]int32(nil), v.A...)
		}
		out[i] = v
	}
	return out
}

// EncodeRow serializes a row, NULLs included, as a byte string that is
// distinct for distinct rows: per value a type tag followed by a type-specific
// payload (zigzag varints for integers, length-prefixed bytes for text,
// length-prefixed delta-varint arrays). The general executor keys its group
// and distinct maps with it; nothing decodes it (stored rows use the tag-free
// segment codec, EncodeSegRow).
func EncodeRow(buf []byte, r Row) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(r)))
	for _, v := range r {
		buf = append(buf, byte(v.T))
		switch v.T {
		case NullType:
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
		}
	}
	return buf
}
