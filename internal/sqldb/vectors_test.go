package sqldb

import (
	"fmt"
	"testing"
)

func TestColArray(t *testing.T) {
	// Two rows of two array columns, row-major: ([1 2], []) and ([3 4 5], [6]).
	elems, starts := []int64{1, 2, 3, 4, 5, 6}, []int32{0, 2, 2, 5, 6}
	xs := Col{Ints: elems, Starts: starts, Stride: 2}
	ys := Col{Ints: elems, Starts: starts[1:], Stride: 2}
	for _, c := range []struct {
		col  *Col
		row  int
		want []int64
	}{{&xs, 0, []int64{1, 2}}, {&ys, 0, nil}, {&xs, 1, []int64{3, 4, 5}}, {&ys, 1, []int64{6}}} {
		if got := c.col.Array(c.row); fmt.Sprint(got) != fmt.Sprint(c.want) || len(got) != len(c.want) {
			t.Fatalf("Array(%d) = %v, want %v", c.row, got, c.want)
		}
	}
	// The full-slice expression must cap the view so an append cannot
	// clobber the next array's elements.
	_ = append(xs.Array(1), 99)
	if elems[5] != 6 {
		t.Fatal("append through an Array view overwrote the decoded vector")
	}
}
