package core

import (
	"math/rand"
	"strings"
	"testing"

	"ptldb/internal/order"
	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/timetable"
)

// tableAccess snapshots the lookup/scan counters of a table.
func tableAccess(t *testing.T, s *Store, name string) (lookups, scans uint64) {
	t.Helper()
	tbl, ok := s.DB.Table(name)
	if !ok {
		t.Fatalf("table %s missing", name)
	}
	return tbl.AccessStats()
}

// TestV2VAccessesExactlyTwoRows machine-checks the paper's Section 3.1
// claim: "for any v2v query, PTLDB needs to access exactly two rows,
// regardless of the sizes of |L_out(s)| and |L_in(g)|".
func TestV2VAccessesExactlyTwoRows(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tt := randomTimetable(rng, 20, 400)
	st, _ := newStore(t, tt, order.ByDegree(tt), BuildOptions{})

	outL0, outS0 := tableAccess(t, st, "lout")
	inL0, inS0 := tableAccess(t, st, "lin")
	const n = 50
	for i := 0; i < n; i++ {
		s := timetable.StopID(rng.Intn(20))
		g := timetable.StopID(rng.Intn(20))
		if _, _, err := st.EarliestArrival(s, g, timetable.Time(rng.Intn(80000))); err != nil {
			t.Fatal(err)
		}
	}
	outL1, outS1 := tableAccess(t, st, "lout")
	inL1, inS1 := tableAccess(t, st, "lin")
	if outL1-outL0 != n || inL1-inL0 != n {
		t.Errorf("EA: %d lout + %d lin lookups for %d queries, want %d each",
			outL1-outL0, inL1-inL0, n, n)
	}
	if outS1 != outS0 || inS1 != inS0 {
		t.Errorf("EA queries triggered full label-table scans (%d, %d)", outS1-outS0, inS1-inS0)
	}
}

// TestKNNAccessPattern checks Section 3.2.1's bound: the optimized kNN query
// joins each tuple of L_out(q) with AT MOST one row of the knn table — so
// knn-table lookups per query are bounded by |L_out(q)| — and never scans it.
func TestKNNAccessPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	tt := randomTimetable(rng, 20, 400)
	st, _ := newStore(t, tt, order.ByDegree(tt), BuildOptions{}, addSet("poi", []timetable.StopID{1, 4, 7, 10, 13}, 4))
	lout, _ := st.DB.Table("lout")

	for trial := 0; trial < 30; trial++ {
		q := timetable.StopID(rng.Intn(20))
		tq := timetable.Time(rng.Intn(80000))
		row, found, err := lout.LookupPK([]int64{int64(q)})
		if err != nil || !found {
			t.Fatal(found, err)
		}
		labelSize := uint64(len(row[1].A))

		knnL0, knnS0 := tableAccess(t, st, "knn_ea_poi")
		if _, err := st.EAKNN("poi", q, tq, 4); err != nil {
			t.Fatal(err)
		}
		knnL1, knnS1 := tableAccess(t, st, "knn_ea_poi")
		if got := knnL1 - knnL0; got > labelSize {
			t.Errorf("EA-kNN(%d) did %d knn_ea lookups, label has %d tuples", q, got, labelSize)
		}
		if knnS1 != knnS0 {
			t.Error("optimized kNN scanned the knn table")
		}
	}

	// The naive query, by contrast, must scan its table (that is its cost),
	// and the EA and the LD naive query scan the same one.
	for _, naive := range []func(string, timetable.StopID, timetable.Time, int) ([]Result, error){st.EAKNNNaive, st.LDKNNNaive} {
		_, naiveS0 := tableAccess(t, st, "knn_naive_poi")
		if _, err := naive("poi", 5, 30000, 4); err != nil {
			t.Fatal(err)
		}
		if _, naiveS1 := tableAccess(t, st, "knn_naive_poi"); naiveS1 != naiveS0+1 {
			t.Errorf("naive kNN scans = %d, want exactly 1 per query", naiveS1-naiveS0)
		}
	}
}

// TestQueryTraces asserts the planner picks the access paths the paper's
// design intends: Code 1 does two point lookups; the optimized kNN joins the
// knn table with an index nested loop; the naive query full-scans its table.
func TestQueryTraces(t *testing.T) {
	st, _ := paperStore(t, addSet("poi", []timetable.StopID{4, 6}, 4))

	_, trace, err := st.DB.QueryTraced(`
WITH outp AS (SELECT UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta FROM lout WHERE v=$1),
inp AS (SELECT UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta FROM lin WHERE v=$2)
SELECT MIN(inp.ta) FROM outp, inp
WHERE outp.hub=inp.hub AND outp.ta<=inp.td AND outp.td>=$3`,
		intv(1), intv(4), intv(30000))
	if err != nil {
		t.Fatal(err)
	}
	assertTrace(t, trace, "point lookup lout", "point lookup lin", "hash join")

	q := `
WITH n1 AS
  (SELECT v, hub, td, ta FROM
     (SELECT v, UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta
      FROM lout WHERE v=$1) n1a
   WHERE td >= $2),
 n1b AS
  (SELECT n1bb.*, n1.ta AS n1_ta FROM knn_ea_poi n1bb, n1
   WHERE n1bb.hub=n1.hub AND n1bb.dephour=FLOOR(n1.ta/3600))
SELECT COUNT(*) FROM n1b`
	_, trace, err = st.DB.QueryTraced(q, intv(0), intv(30000))
	if err != nil {
		t.Fatal(err)
	}
	assertTrace(t, trace, "point lookup lout", "index nested-loop join n1bb")

	_, trace, err = st.DB.QueryTraced("SELECT COUNT(*) FROM knn_naive_poi")
	if err != nil {
		t.Fatal(err)
	}
	assertTrace(t, trace, "full scan knn_naive_poi")
}

func intv(v int64) sqltypes.Value { return sqltypes.NewInt(v) }

// assertTrace checks each fragment appears in order within the trace.
func assertTrace(t *testing.T, trace []string, fragments ...string) {
	t.Helper()
	i := 0
	for _, frag := range fragments {
		found := false
		for ; i < len(trace); i++ {
			if strings.Contains(trace[i], frag) {
				found = true
				i++
				break
			}
		}
		if !found {
			t.Fatalf("trace lacks %q in order; trace = %v", frag, trace)
		}
	}
}
