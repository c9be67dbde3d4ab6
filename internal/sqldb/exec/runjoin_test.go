package exec

// runjoin_test.go tests the run-order join of runV2V against a brute-force
// double loop over the same labels — the three aggregates and the witness row
// — and the galloping searches on their own. The test tables declare the order
// through Table.RunOrder; nothing validates it for them, so every label here is
// built run-ordered.

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ptldb/internal/sqldb/sqltypes"
)

func TestGallopSearches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		a := make([]int32, rng.Intn(40))
		for i := range a {
			a[i] = int32(rng.Intn(12))
		}
		if trial%5 == 0 { // the ends of the element domain
			for i := range a {
				a[i] = []int32{math.MinInt32, -1, 0, math.MaxInt32}[rng.Intn(4)]
			}
		}
		slices.Sort(a)
		lo := rng.Intn(len(a) + 1)
		hi := lo + rng.Intn(len(a)-lo+1)
		// Probes at the ends of int64, where v+1 would wrap, and just past the
		// ends of int32, which only a widened comparison orders right.
		for _, v := range []int64{math.MinInt64, math.MinInt32 - 1, math.MinInt32, -1, 0, int64(rng.Intn(13)),
			math.MaxInt32, math.MaxInt32 + 1, math.MaxInt64} {
			ge := 0
			for ge < hi-lo && int64(a[lo+ge]) < v {
				ge++
			}
			gt := ge
			for gt < hi-lo && int64(a[lo+gt]) == v {
				gt++
			}
			if got := firstGE(a, lo, hi, v); got != lo+ge {
				t.Fatalf("firstGE(%v, %d, %d, %d) = %d, want %d", a, lo, hi, v, got, lo+ge)
			}
			if got := firstGT(a, lo, hi, v); got != lo+gt {
				t.Fatalf("firstGT(%v, %d, %d, %d) = %d, want %d", a, lo, hi, v, got, lo+gt)
			}
			// Every hint, right or wrong, and some outside [lo, hi].
			for hint := lo - 2; hint <= hi+2; hint++ {
				if got := firstGTFrom(a, lo, hi, hint, v); got != lo+gt {
					t.Fatalf("firstGTFrom(%v, %d, %d, %d, %d) = %d, want %d", a, lo, hi, hint, v, got, lo+gt)
				}
			}
		}
	}
}

// bruteV2V is Code 1 as a double loop: no order assumed, every predicate
// applied to every pair.
func bruteV2V(op byte, out, in sqltypes.Row, t, tEnd int64) (best int64, ok bool) {
	for x, hub := range out[1].A {
		for y, inHub := range in[1].A {
			outTd, outTa, inTd, inTa := int64(out[2].A[x]), int64(out[3].A[x]), int64(in[2].A[y]), int64(in[3].A[y])
			if hub != inHub || outTa > inTd {
				continue
			}
			var v int64
			switch op {
			case 'E':
				if outTd < t {
					continue
				}
				v = inTa
			case 'L':
				if inTa > t {
					continue
				}
				v = outTd
			case 'S':
				if outTd < t || inTa > tEnd {
					continue
				}
				v = inTa - outTd
			}
			if !ok || (op == 'L' && v > best) || (op != 'L' && v < best) {
				best, ok = v, true
			}
		}
	}
	return best, ok
}

// bruteWitness is SQLV2VEAWitness as a double loop: every pair passing the EA
// predicates, the smallest under the statement's ORDER BY. A row is (hub,
// out.td, out.ta, in.td, in.ta).
func bruteWitness(out, in sqltypes.Row, t int64) (best [5]int64, ok bool) {
	for x, hub := range out[1].A {
		for y, inHub := range in[1].A {
			row := [5]int64{int64(hub), int64(out[2].A[x]), int64(out[3].A[x]), int64(in[2].A[y]), int64(in[3].A[y])}
			if hub != inHub || row[2] > row[3] || row[1] < t {
				continue
			}
			// ORDER BY inp.ta, outp.td DESC, outp.hub, outp.ta, inp.td
			if !ok || cmp.Or(cmp.Compare(row[4], best[4]), cmp.Compare(best[1], row[1]),
				cmp.Compare(row[0], best[0]), cmp.Compare(row[2], best[2]), cmp.Compare(row[3], best[3])) < 0 {
				best, ok = row, true
			}
		}
	}
	return best, ok
}

// TestRunJoinMatchesBruteForce builds random run-ordered label pairs — hubs at
// both ends of int32, runs with equal-departure ties with different arrivals,
// equal-arrival ties with different departures and fully duplicate tuples,
// empty labels, pairs with no or exactly one common hub — and checks all three
// aggregates and the witness at every interesting time: below, at, between and
// above every tuple, and both ends of int64. The witness must also equal the
// general executor's row, column for column.
func TestRunJoinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	hubPool := []int32{math.MinInt32, -3, 0, 1, 2, 7, math.MaxInt32}
	// side draws one label over the hubs of hubPool selected by mask.
	side := func(v int64, mask int) sqltypes.Row {
		var hubs, tds, tas []int32
		for hi, hub := range hubPool {
			if mask&(1<<hi) == 0 {
				continue
			}
			td, ta := int32(rng.Intn(20)), int32(20+rng.Intn(20))
			for n := 1 + rng.Intn(5); n > 0; n-- {
				hubs, tds, tas = append(hubs, hub), append(tds, td), append(tas, ta)
				switch rng.Intn(5) {
				case 0: // a fully duplicate tuple
				case 1: // an equal-departure tie with a later arrival
					ta += int32(1 + rng.Intn(10))
				case 2: // an equal-arrival tie with a later departure
					td += int32(1 + rng.Intn(10))
				default:
					td += int32(rng.Intn(15))
					ta += int32(rng.Intn(15))
				}
			}
		}
		return sqltypes.Row{sqltypes.NewInt(v), sqltypes.NewIntArray(hubs), sqltypes.NewIntArray(tds), sqltypes.NewIntArray(tas)}
	}
	witnessSel := mustParse(t, fmt.Sprintf(SQLV2VEAWitness, "lout", "lin"))
	statements := map[byte]string{'E': SQLV2VEA, 'L': SQLV2VLD, 'S': SQLV2VSD, 'W': SQLV2VEAWitness}
	all := 1<<len(hubPool) - 1
	for trial := 0; trial < 300; trial++ {
		outMask, inMask := rng.Intn(all+1), rng.Intn(all+1)
		switch trial % 6 {
		case 0:
			outMask = 0 // empty out label
		case 1:
			inMask = 0 // empty in label
		case 2:
			inMask &^= outMask // no common hub
		case 3:
			one := 1 << rng.Intn(len(hubPool)) // exactly one common hub
			outMask, inMask = outMask|one, inMask&^outMask|one
		}
		out, in := side(1, outMask), side(1, inMask)
		cat := memCatalog{
			"lout": &memTable{cols: labelCols, pk: []int{0}, runOrder: []int{1, 2, 3}, rows: []sqltypes.Row{out}},
			"lin":  &memTable{cols: labelCols, pk: []int{0}, runOrder: []int{1, 2, 3}, rows: []sqltypes.Row{in}},
		}
		times := []int64{math.MinInt64, -1, math.MaxInt64 - 1, math.MaxInt64}
		for _, col := range [][]int32{out[2].A, out[3].A, in[2].A, in[3].A} {
			for _, v := range col {
				times = append(times, int64(v)-1, int64(v), int64(v)+1)
			}
		}
		slices.Sort(times)
		times = slices.Compact(times)
		for op, tmpl := range statements {
			fp := mustFuse(t, cat, fmt.Sprintf(tmpl, "lout", "lin"))
			for _, tv := range times {
				ends := []int64{0}
				if op == 'S' {
					ends = []int64{tv, times[rng.Intn(len(times))], math.MaxInt64}
				}
				for _, tEnd := range ends {
					params := []sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewInt(1), sqltypes.NewInt(tv)}
					if op == 'S' {
						params = append(params, sqltypes.NewInt(tEnd))
					}
					rel, err := fp.Run(params)
					if err != nil {
						t.Fatal(err)
					}
					if op == 'W' {
						want, ok := bruteWitness(out, in, tv)
						if (len(rel.Rows) == 1) != ok {
							t.Fatalf("trial %d W(t=%d): %d rows, want a row: %v\nout %v\n in %v", trial, tv, len(rel.Rows), ok, out, in)
						}
						for c := 0; ok && c < len(want); c++ {
							if rel.Rows[0][c].I != want[c] {
								t.Fatalf("trial %d W(t=%d): got %v, want %v\nout %v\n in %v", trial, tv, rel.Rows[0], want, out, in)
							}
						}
						general, err := Run(witnessSel, cat, params)
						if err != nil {
							t.Fatal(err)
						}
						compareRelations(t, rel, general, params)
						continue
					}
					want, ok := bruteV2V(op, out, in, tv, tEnd)
					got := rel.Rows[0][0]
					if got.IsNull() == ok || (ok && got.I != want) {
						t.Fatalf("trial %d %c(t=%d, tEnd=%d): got %v, want %d (%v)\nout %v\n in %v",
							trial, op, tv, tEnd, got, want, ok, out, in)
					}
				}
			}
		}
	}
}
