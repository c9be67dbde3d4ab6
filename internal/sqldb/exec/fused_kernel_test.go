package exec

// fused_kernel_test.go tests the hash-free condensed kernel on the shapes
// real label data rarely produces: many label tuples per (hub, bucket),
// negative timestamps through FloorDiv, a timestamp so far out that its bucket
// spans four bytes (the probe order takes four counting passes), k beyond an
// arm's length, empty labels and query stops that are themselves targets —
// against condensed tables keyed (bucket, hub), always compared with the
// general executor and always probing in ascending key order — plus the
// per-target accumulator, the label grouping, the probe order at the spans
// where its passes change in number and top-k selection on their own, and one
// plan shared by many goroutines.

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"ptldb/internal/sqldb/sql"
	"ptldb/internal/sqldb/sqltypes"
)

// TestTargetAccMatchesMap: over many epochs of one pooled accumulator — each
// bound to another table size, so the array grows, shrinks and grows back over
// stale stamps, and the epoch counter wraps on the way — the entries are what
// a map keeps, in first-touch order, and an id outside the bound of *this*
// epoch (negative, the bound itself, one a larger earlier table admitted) is
// dropped and the first of them reported, never written.
func TestTargetAccMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var acc targetAcc
	for epoch := 0; epoch < 300; epoch++ {
		if epoch == 100 {
			acc.epoch = math.MaxUint32 - 1 // the next two resets wrap the stamp
		}
		bound := 1 + rng.Intn(300)
		if epoch%7 == 0 {
			bound = 1 + rng.Intn(5) // far below the pooled array
		}
		acc.reset(bound)
		if len(acc.slots) != bound || acc.epoch == 0 {
			t.Fatalf("epoch %d: %d slots under stamp %d, want %d under a non-zero one", epoch, len(acc.slots), acc.epoch, bound)
		}
		minOf, maxOf := epoch%2 == 0, epoch%2 != 0
		var want []kEntry
		at := map[int64]int{}
		stray, strayed := int64(0), false
		for i := 0; i < 4*bound; i++ {
			v, val := int64(rng.Intn(bound+8))-4, int64(rng.Intn(50))-25
			if minOf {
				acc.foldMin(v, val)
			} else {
				acc.foldMax(v, val)
			}
			if v < 0 || v >= int64(bound) {
				if !strayed {
					stray, strayed = v, true
				}
				continue
			}
			if j, seen := at[v]; !seen {
				at[v] = len(want)
				want = append(want, kEntry{v, val})
			} else if (minOf && val < want[j].val) || (maxOf && val > want[j].val) {
				want[j].val = val
			}
		}
		if !slices.Equal(acc.entries, want) {
			t.Fatalf("epoch %d (bound %d): entries %v, want %v", epoch, bound, acc.entries, want)
		}
		if acc.strayed != strayed || (strayed && acc.stray != stray) {
			t.Fatalf("epoch %d (bound %d): stray %d (%v), want %d (%v)", epoch, bound, acc.stray, acc.strayed, stray, strayed)
		}
	}
}

// TestGroupsAreLabelRuns: on a run-ordered label the grouping needs no lookup —
// the tuples of one (hub, bucket) key are adjacent, so there is one group per
// distinct key, in strictly ascending (hub, bucket) order, and an LD group is
// exactly its hub's run of the label, as its run ends give it. Labels carry
// negative times, dummy
// tuples (td == ta) and many tuples per key; width 1 makes every distinct
// arrival a bucket of its own.
func TestGroupsAreLabelRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 400; trial++ {
		var lab label
		var hubs []int32 // the hub of each tuple, which lab holds as runs
		for hub, nHubs := int64(-2), int64(rng.Intn(6)); hub < nHubs; hub += 1 + int64(rng.Intn(3)) {
			td, ta := int64(rng.Intn(200))-300, int64(0)
			for n := 1 + rng.Intn(40); n > 0; n-- {
				td += int64(rng.Intn(30)) // repeats: several tuples per departure
				if ta = max(ta, td); rng.Intn(3) > 0 {
					ta += int64(rng.Intn(60)) // else a dummy tuple, or one arriving with the last
				}
				hubs, lab.tds, lab.tas = append(hubs, int32(hub)), append(lab.tds, int32(td)), append(lab.tas, int32(ta))
			}
		}
		lab.hubs, lab.ends = sqltypes.SplitRuns(appendRuns(nil, hubs))
		ascending := func(st *queryState, what string) {
			t.Helper()
			for i := 1; i < len(st.groups); i++ {
				if a, b := &st.groups[i-1], &st.groups[i]; a.hub > b.hub || (a.hub == b.hub && a.bucket >= b.bucket) {
					t.Fatalf("trial %d %s: groups %d and %d do not ascend in (hub, bucket): %+v, %+v", trial, what, i-1, i, *a, *b)
				}
			}
		}
		for _, width := range []int64{0, 1, 7, 50} {
			at := int64(rng.Intn(400)) - 350
			type key struct{ hub, bucket int64 }
			minTa := map[key]int64{}
			for i, td := range lab.tds {
				if int64(td) < at {
					continue
				}
				ta := int64(lab.tas[i])
				k := key{hub: int64(hubs[i])}
				if width > 0 {
					k.bucket = FloorDiv(ta, width)
				}
				if m, ok := minTa[k]; !ok || ta < m {
					minTa[k] = ta
				}
			}
			var st queryState
			st.groupEA(lab, at, width)
			what := fmt.Sprintf("EA t=%d width=%d", at, width)
			if len(st.groups) != len(minTa) {
				t.Fatalf("trial %d %s: %d groups, %d distinct keys", trial, what, len(st.groups), len(minTa))
			}
			ascending(&st, what)
			for _, g := range st.groups {
				if want, ok := minTa[key{g.hub, g.bucket}]; !ok || g.minTa != want {
					t.Fatalf("trial %d %s: group %+v, want minTa %d (%v)", trial, what, g, want, ok)
				}
			}
		}
		var st queryState
		st.groupLD(lab, 5)
		ascending(&st, "LD")
		next := int32(0)
		for _, g := range st.groups {
			if g.bucket != 5 || g.lo != next || g.hi <= g.lo {
				t.Fatalf("trial %d LD: group %+v does not continue the label at %d", trial, g, next)
			}
			for i := g.lo; i < g.hi; i++ {
				if int64(hubs[i]) != g.hub {
					t.Fatalf("trial %d LD: group %+v holds tuple %d of hub %d", trial, g, i, hubs[i])
				}
			}
			if got := st.groupByHub(g.hub); got == nil || *got != g {
				t.Fatalf("trial %d LD: groupByHub(%d) = %+v, want %+v", trial, g.hub, got, g)
			}
			next = g.hi
		}
		if int(next) != len(hubs) || st.groupByHub(-3) != nil || st.groupByHub(100) != nil {
			t.Fatalf("trial %d LD: groups end at %d of %d tuples, or a hub outside the label has a group", trial, next, len(hubs))
		}
	}
}

// TestOrderGroupsPassEdges: orderGroups leaves a label's groups in what a
// stable sort by bucket leaves — the condensed key order (bucket, hub), since
// groups arrive hub-ascending — at the spans where its counting passes change
// in number (0, 1, 2, 3, 6 and 8 bytes), negative buckets and the full int64
// range included, and on an LD grouping (one bucket, already in order). A
// warmed state orders without allocating.
func TestOrderGroupsPassEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	// groups returns an EA-shaped grouping over [lo, lo+span]: hubs ascend,
	// buckets ascend within a hub, and both ends of the span are present.
	groups := func(lo int64, span uint64) []hubGroup {
		bucket := func() int64 {
			if span == math.MaxUint64 {
				return int64(rng.Uint64())
			}
			return int64(uint64(lo) + rng.Uint64()%(span+1))
		}
		hi := int64(uint64(lo) + span)
		gs := []hubGroup{{hub: 0, bucket: hi}, {hub: 1, bucket: lo}}
		for hub := int64(2); hub < 60; hub += 1 + int64(rng.Intn(3)) {
			bs := []int64{bucket(), bucket(), bucket(), bucket()}[:1+rng.Intn(4)]
			slices.Sort(bs)
			for _, b := range slices.Compact(bs) {
				gs = append(gs, hubGroup{hub: hub, bucket: b, minTa: b ^ hub})
			}
		}
		return gs
	}
	ld := make([]hubGroup, 40)
	for i := range ld {
		ld[i] = hubGroup{hub: int64(3 * i), bucket: 9, lo: int32(i), hi: int32(i + 1)}
	}
	cases := []struct {
		name string
		in   []hubGroup
	}{
		{"span 0", groups(-4, 0)},
		{"span 1", groups(-1, 1)},
		{"span 255", groups(-100, 255)},
		{"span 256", groups(-100, 256)},
		{"span 65535", groups(7, 65535)},
		{"span 65536", groups(-65536, 65536)},
		{"span 2^40", groups(-1<<39, 1<<40)},
		{"full int64 range", groups(math.MinInt64, math.MaxUint64)},
		{"LD, in order", ld},
		{"one group", groups(5, 0)[:1]},
		{"no group", nil},
	}
	var st queryState
	for _, c := range cases {
		want := slices.Clone(c.in)
		slices.SortStableFunc(want, func(a, b hubGroup) int { return cmp.Compare(a.bucket, b.bucket) })
		run := func() {
			st.groups = append(st.groups[:0], c.in...)
			st.orderGroups()
		}
		run()
		if !slices.Equal(st.groups, want) {
			t.Fatalf("%s: got %+v, want %+v", c.name, st.groups, want)
		}
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("%s: %.1f allocations per orderGroups on a warmed state, want 0", c.name, allocs)
		}
	}
}

func TestTopKMatchesSortAndTruncate(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		var acc targetAcc
		n := rng.Intn(40)
		acc.reset(n + 1)
		for i := 0; i < 3*n; i++ {
			acc.foldMin(int64(rng.Intn(n+1)), int64(rng.Intn(8))-4) // few values: many ties
		}
		desc, limited, k := rng.Intn(2) == 0, rng.Intn(4) != 0, 1+rng.Intn(n+3)
		want := slices.Clone(acc.entries)
		order := entryAsc
		if desc {
			order = entryDesc
		}
		slices.SortFunc(want, order)
		if limited && k < len(want) {
			want = want[:k]
		}
		if got := acc.topK(k, limited, desc); !slices.Equal(got, want) {
			t.Fatalf("trial %d (k=%d limited=%v desc=%v): got %v, want %v", trial, k, limited, desc, got, want)
		}
	}
}

// awkwardCatalog builds a label table for stops 1..6 and one condensed table
// per direction whose targets are those same stops, each declaring how many of
// them it holds; the EA table's arrivals respect the floor it declares, as the
// builder's do. Timestamps span
// [-300, 280) so that, at width 50, buckets run from -6 to 5; dense labels
// put ~15 tuples on each of four hubs, i.e. several per (hub, bucket), and
// give stop 6 one departure a billion seconds out (bucket 20 000 000), a
// bucket span of four bytes, which orderGroups orders in four counting passes.
const awkwardWidth = 50

func awkwardCatalog(rng *rand.Rand, dense bool) memCatalog {
	maxEntries := 8
	if dense {
		maxEntries = 60
	}
	lout := randLabelTable(rng, 6, maxEntries)
	for _, row := range lout.rows[1:] { // stop 1 keeps the non-negative range
		shift := int32(rng.Intn(300))
		for _, col := range row[2:] { // tds and tas move together: the order survives
			for i := range col.A {
				col.A[i] -= shift
			}
		}
	}
	if dense {
		far := lout.rows[5] // hub 3 is the largest, so the label stays run-ordered
		far[1].A, far[2].A, far[3].A = append(far[1].A, 3), append(far[2].A, 1e9), append(far[3].A, 1e9+5)
	}
	lout.rows[2][1] = sqltypes.NewIntArray(nil) // stop 3: present but empty
	lout.rows[2][2] = sqltypes.NewIntArray(nil)
	lout.rows[2][3] = sqltypes.NewIntArray(nil)

	aux := func(bucketCol, top string) *memTable {
		tbl := &memTable{
			cols: []string{"hub", bucketCol, "vs", top, "tds_exp", "vs_exp", "tas_exp"},
			pk:   []int{1, 0}, // (bucket, hub)
			// Targets are stops 1..6.
			targetCols: []int{2, 5}, bound: 7,
		}
		ea := bucketCol == "dephour"
		if ea { // the builder's floor: no arrival before the bucket starts
			tbl.floorKey, tbl.floorWidth, tbl.floorCols = 1, awkwardWidth, []int{3, 6}
		}
		arr := func(n int, gen func() int64) sqltypes.Value {
			a := make([]int32, n)
			for i := range a {
				a[i] = int32(gen())
			}
			return sqltypes.NewIntArray(a)
		}
		target := func() int64 { return 1 + int64(rng.Intn(6)) }
		when := func() int64 { return int64(rng.Intn(700)) - 350 }
		for hub := int64(0); hub < 4; hub++ {
			for bucket := int64(-7); bucket <= 7; bucket++ {
				if rng.Intn(5) == 0 {
					continue // leave some (hub, bucket) cells missing
				}
				// As in real condensed tables the expanded connections leave
				// within the row's bucket, so which label tuple of the bucket
				// dominates decides what the arm contributes.
				inBucket := func() int64 { return bucket*awkwardWidth + int64(rng.Intn(awkwardWidth)) }
				arrival := when
				if ea {
					arrival = func() int64 { return bucket*awkwardWidth + int64(rng.Intn(3*awkwardWidth)) }
				}
				n, m := rng.Intn(7), rng.Intn(7) // arms of 0..6 entries
				tbl.rows = append(tbl.rows, sqltypes.Row{
					sqltypes.NewInt(hub), sqltypes.NewInt(bucket),
					arr(n, target), arr(n, arrival),
					arr(m, inBucket), arr(m, target), arr(m, arrival),
				})
			}
		}
		declareCount(tbl)
		return tbl
	}
	return memCatalog{
		"lout":   lout,
		"aux_ea": aux("dephour", "tas"),
		"aux_ld": aux("arrhour", "tds"),
	}
}

// keyLogCatalog is a memCatalog that records, in order, the key of every
// two-column point lookup made through it.
type keyLogCatalog struct {
	memCatalog
	keys *[][2]int64
}

func (c keyLogCatalog) Table(name string) (Table, bool) {
	t, ok := c.memCatalog[strings.ToLower(name)]
	if !ok {
		return nil, false
	}
	return keyLogTable{t, c.keys}, true
}

type keyLogTable struct {
	*memTable
	keys *[][2]int64
}

func (t keyLogTable) LookupPKScratch(key []int64, s *RowScratch) (sqltypes.Row, bool, error) {
	if len(key) == 2 {
		*t.keys = append(*t.keys, [2]int64{key[0], key[1]})
	}
	return t.memTable.LookupPKScratch(key, s)
}

func TestFusedCondensedAwkwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const width = awkwardWidth
	queries := []struct {
		q    string
		kNN  bool
		kind string
	}{
		{fmt.Sprintf(SQLKNNEA, "aux_ea", width, "lout"), true, "knn-ea"},
		{fmt.Sprintf(SQLKNNLD, "aux_ld", width, "lout"), true, "knn-ld"},
		{fmt.Sprintf(SQLOTMEA, "aux_ea", width, "lout"), false, "otm-ea"},
		{fmt.Sprintf(SQLOTMLD, "aux_ld", width, "lout"), false, "otm-ld"},
	}
	for trial := 0; trial < 32; trial++ {
		cat := awkwardCatalog(rng, trial%2 == 0)
		var probed [][2]int64
		logged := keyLogCatalog{cat, &probed}
		for _, qq := range queries {
			fp := mustFuse(t, logged, qq.q)
			if fp.Kind() != qq.kind {
				t.Fatalf("%s fused as %s", qq.kind, fp.Kind())
			}
			for rep := 0; rep < 6; rep++ {
				params := []sqltypes.Value{
					sqltypes.NewInt(int64(rng.Intn(8))), // 0 and 7 are absent, 3 is empty
					sqltypes.NewInt(int64(rng.Intn(800)) - 400),
				}
				if qq.kNN {
					// 1..5 cut arms short, 6 is the longest arm (kmax), 7..9
					// exceed every arm and the number of targets.
					params = append(params, sqltypes.NewInt(int64(1+rng.Intn(9))))
				}
				diffRun(t, cat, qq.q, params)
				// Keys reach the table in its key order: a sweep of the table
				// is a strictly ascending list.
				probed = probed[:0]
				if _, err := fp.Run(params); err != nil {
					t.Fatal(err)
				}
				if !slices.IsSortedFunc(probed, func(a, b [2]int64) int {
					if a == b {
						return -1 // a repeated probe is out of order too
					}
					return slices.Compare(a[:], b[:])
				}) {
					t.Fatalf("trial %d %s %v: probes not in ascending key order: %v", trial, qq.kind, params, probed)
				}
			}
		}
	}
}

// TestFusedKNNStopRule pins where an EA kNN or one-to-many sweep stops, on
// hand-made tables at width 10: not at a bucket that starts exactly at the
// k-th best value (a target there may tie it and win on its id) or, for a
// one-to-many, at the largest value; not while fewer than k targets — or, for
// a one-to-many, than the table's declared count — are accumulated, so never
// when the count overstates the ids the table holds; and at the first bucket
// that starts after that value, negative buckets included. Every answer is the
// general executor's, and the number of rows looked up is exact: one per label
// group until the stop.
func TestFusedKNNStopRule(t *testing.T) {
	const w = 10
	type cond struct {
		bucket, hub                    int64
		vs, tas, tdsExp, vsExp, tasExp []int32
	}
	cases := []struct {
		name           string
		hubs, tds, tas []int32 // stop 1's label
		rows           []cond
		t, k           int64
		count          int // > 0: the one-to-many, over a table declaring this count
		probes         int
	}{
		{name: "a value at the bucket start ties the k-th value",
			hubs: []int32{0, 1}, tds: []int32{0, 0}, tas: []int32{5, 12}, // groups (0, 0), (1, 1)
			rows: []cond{
				{bucket: 0, hub: 0, tdsExp: []int32{5}, vsExp: []int32{5}, tasExp: []int32{10}},
				{bucket: 1, hub: 1, vs: []int32{3}, tas: []int32{10}}, // (3, 10) displaces (5, 10)
			},
			k: 1, probes: 2},
		{name: "k = 1 stops at the first bucket after the best value",
			hubs: []int32{0, 1, 2}, tds: []int32{0, 0, 0}, tas: []int32{5, 25, 31}, // groups (0, 0), (2, 1), (3, 2)
			rows: []cond{
				{bucket: 0, hub: 0, tdsExp: []int32{5}, vsExp: []int32{5}, tasExp: []int32{10}},
				{bucket: 2, hub: 1, vs: []int32{3}, tas: []int32{20}},
				{bucket: 3, hub: 2, vs: []int32{4}, tas: []int32{30}},
			},
			k: 1, probes: 1},
		{name: "fewer than k targets never stop",
			hubs: []int32{0, 1, 2}, tds: []int32{0, 0, 0}, tas: []int32{5, 25, 45}, // groups (0, 0), (2, 1), (4, 2)
			rows: []cond{
				{bucket: 0, hub: 0, vs: []int32{5}, tas: []int32{10}},
				{bucket: 2, hub: 1, vs: []int32{3}, tas: []int32{20}},
				{bucket: 4, hub: 2, vs: []int32{5}, tas: []int32{40}},
			},
			k: 3, probes: 3},
		{name: "a negative bucket starting at the k-th value",
			hubs: []int32{0, 1}, tds: []int32{-50, -40}, tas: []int32{-35, -25}, // groups (-4, 0), (-3, 1)
			rows: []cond{
				{bucket: -4, hub: 0, vs: []int32{1, 2}, tas: []int32{-40, -30}},
				{bucket: -3, hub: 1, vs: []int32{0}, tas: []int32{-30}}, // (0, -30) displaces (2, -30)
			},
			t: -100, k: 2, probes: 2},
		{name: "a negative bucket starting after the k-th value",
			hubs: []int32{0, 1}, tds: []int32{-50, -40}, tas: []int32{-35, -25},
			rows: []cond{
				{bucket: -4, hub: 0, vs: []int32{1, 2}, tas: []int32{-40, -31}},
				{bucket: -3, hub: 1, vs: []int32{0}, tas: []int32{-30}},
			},
			t: -100, k: 2, probes: 1},
		{name: "one-to-many stops at the first bucket after the largest value once every target is in",
			hubs: []int32{0, 1, 2}, tds: []int32{0, 0, 0}, tas: []int32{5, 25, 41}, // groups (0, 0), (2, 1), (4, 2)
			rows: []cond{
				{bucket: 0, hub: 0, vs: []int32{3}, tas: []int32{12}, tdsExp: []int32{5}, vsExp: []int32{5}, tasExp: []int32{18}},
				{bucket: 2, hub: 1, vs: []int32{3}, tas: []int32{20}},
				{bucket: 4, hub: 2, vs: []int32{5}, tas: []int32{40}},
			},
			count: 2, probes: 1},
		{name: "one-to-many: a bucket that starts at the largest value",
			hubs: []int32{0, 1, 2}, tds: []int32{0, 0, 0}, tas: []int32{5, 25, 35}, // groups (0, 0), (2, 1), (3, 2)
			rows: []cond{
				{bucket: 0, hub: 0, vs: []int32{3, 5}, tas: []int32{12, 20}},
				{bucket: 2, hub: 1, vs: []int32{5}, tas: []int32{20}}, // ties (5, 20)
				{bucket: 3, hub: 2, vs: []int32{3}, tas: []int32{30}},
			},
			count: 2, probes: 2},
		{name: "one-to-many: fewer than count targets never stop",
			hubs: []int32{0, 1, 2}, tds: []int32{0, 0, 0}, tas: []int32{5, 25, 45}, // groups (0, 0), (2, 1), (4, 2)
			rows: []cond{
				{bucket: 0, hub: 0, vs: []int32{3}, tas: []int32{10}},
				{bucket: 2, hub: 1, vs: []int32{5}, tas: []int32{20}},
				{bucket: 4, hub: 2, vs: []int32{7}, tas: []int32{40}},
			},
			count: 3, probes: 3},
		{name: "one-to-many: a count that overstates the table's ids never stops",
			hubs: []int32{0, 1, 2}, tds: []int32{0, 0, 0}, tas: []int32{5, 25, 41},
			rows: []cond{
				{bucket: 0, hub: 0, vs: []int32{3}, tas: []int32{12}, tdsExp: []int32{5}, vsExp: []int32{5}, tasExp: []int32{18}},
				{bucket: 2, hub: 1, vs: []int32{3}, tas: []int32{20}},
				{bucket: 4, hub: 2, vs: []int32{5}, tas: []int32{40}},
			},
			count: 3, probes: 3},
		{name: "one-to-many: a negative bucket starting at the largest value",
			hubs: []int32{0, 1}, tds: []int32{-50, -40}, tas: []int32{-35, -25}, // groups (-4, 0), (-3, 1)
			rows: []cond{
				{bucket: -4, hub: 0, vs: []int32{1, 2}, tas: []int32{-40, -30}},
				{bucket: -3, hub: 1, vs: []int32{2}, tas: []int32{-30}},
			},
			t: -100, count: 2, probes: 2},
		{name: "one-to-many: a negative bucket starting after the largest value",
			hubs: []int32{0, 1}, tds: []int32{-50, -40}, tas: []int32{-35, -25},
			rows: []cond{
				{bucket: -4, hub: 0, vs: []int32{1, 2}, tas: []int32{-40, -31}},
				{bucket: -3, hub: 1, vs: []int32{1}, tas: []int32{-30}},
			},
			t: -100, count: 2, probes: 1},
	}
	arr := sqltypes.NewIntArray
	for _, tc := range cases {
		aux := &memTable{
			cols: []string{"hub", "dephour", "vs", "tas", "tds_exp", "vs_exp", "tas_exp"}, pk: []int{1, 0},
			targetCols: []int{2, 5}, bound: 10, count: tc.count, floorKey: 1, floorWidth: w, floorCols: []int{3, 6},
		}
		for _, r := range tc.rows {
			aux.rows = append(aux.rows, sqltypes.Row{sqltypes.NewInt(r.hub), sqltypes.NewInt(r.bucket),
				arr(r.vs), arr(r.tas), arr(r.tdsExp), arr(r.vsExp), arr(r.tasExp)})
		}
		cat := memCatalog{
			"lout": &memTable{cols: labelCols, pk: []int{0}, runOrder: []int{1, 2, 3},
				rows: []sqltypes.Row{{sqltypes.NewInt(1), arr(tc.hubs), arr(tc.tds), arr(tc.tas)}}},
			"aux_ea": aux,
		}
		q := fmt.Sprintf(SQLKNNEA, "aux_ea", w, "lout")
		params := []sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewInt(tc.t), sqltypes.NewInt(tc.k)}
		if tc.count > 0 {
			q, params = fmt.Sprintf(SQLOTMEA, "aux_ea", w, "lout"), params[:2]
		}
		diffRun(t, cat, q, params)
		var probed [][2]int64
		if _, err := mustFuse(t, keyLogCatalog{cat, &probed}, q).Run(params); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(probed) != tc.probes {
			t.Errorf("%s: looked up %v, want the first %d of the label's groups", tc.name, probed, tc.probes)
		}
	}
}

// TestFusedLDKNNSkip pins which rows an LD kNN looks up, on hand-made tables
// at width 10 whose probes all fall in one bucket: a hub whose run's latest
// departure ties the k-th best value so far is fetched (a target there may tie
// it and win on its id); one strictly below it is skipped, and a later hub
// above it is fetched again, so the rule skips and never stops; the bound is
// the run's last departure, not its first; nothing is skipped while fewer than
// k targets are in, and a one-to-many never skips. Every answer is the general
// executor's, and the probe list is exact.
func TestFusedLDKNNSkip(t *testing.T) {
	const w, at = 10, 100
	type cond struct {
		hub                            int64
		vs, tds, tdsExp, vsExp, tasExp []int32
	}
	// Stop 1's label puts hubs 0, 1 and 2 at latest departures 8, 5 and 9,
	// and each hub's row folds one target at that departure.
	skipLabel := [3][]int32{{0, 1, 2}, {8, 5, 9}, {9, 6, 10}}
	skipRows := []cond{
		{hub: 0, vs: []int32{5}, tds: []int32{50}},
		{hub: 1, vs: []int32{3}, tds: []int32{50}},
		{hub: 2, vs: []int32{4}, tds: []int32{50}},
	}
	cases := []struct {
		name   string
		label  [3][]int32 // hubs, tds, tas
		rows   []cond
		k      int64   // 0: the one-to-many
		probes []int64 // the hubs looked up, in order
	}{
		{name: "a run whose latest departure ties the k-th value",
			label: [3][]int32{{0, 1}, {5, 5}, {6, 7}},
			rows: []cond{
				{hub: 0, vs: []int32{5}, tds: []int32{50}},
				{hub: 1, vs: []int32{3}, tds: []int32{50}}, // (3, 5) displaces (5, 5)
			},
			k: 1, probes: []int64{0, 1}},
		{name: "a run below the k-th value is skipped, a later one above it is not",
			label: skipLabel, rows: skipRows, k: 1, probes: []int64{0, 2}},
		{name: "the bound is the run's last departure",
			label: [3][]int32{{0, 1, 1}, {8, 2, 9}, {9, 3, 60}},
			rows: []cond{
				{hub: 0, vs: []int32{5}, tds: []int32{50}},
				{hub: 1, vs: []int32{3}, tds: []int32{70}, tdsExp: []int32{4}, vsExp: []int32{6}, tasExp: []int32{90}},
			},
			k: 1, probes: []int64{0, 1}},
		{name: "fewer than k targets never skip",
			label: skipLabel, rows: skipRows, k: 2, probes: []int64{0, 1, 2}},
		{name: "a one-to-many never skips",
			label: skipLabel, rows: skipRows, probes: []int64{0, 1, 2}},
	}
	arr := sqltypes.NewIntArray
	for _, tc := range cases {
		aux := &memTable{
			cols: []string{"hub", "arrhour", "vs", "tds", "tds_exp", "vs_exp", "tas_exp"}, pk: []int{1, 0},
			targetCols: []int{2, 5}, bound: 10,
		}
		for _, r := range tc.rows {
			aux.rows = append(aux.rows, sqltypes.Row{sqltypes.NewInt(r.hub), sqltypes.NewInt(at / w),
				arr(r.vs), arr(r.tds), arr(r.tdsExp), arr(r.vsExp), arr(r.tasExp)})
		}
		cat := memCatalog{
			"lout": &memTable{cols: labelCols, pk: []int{0}, runOrder: []int{1, 2, 3},
				rows: []sqltypes.Row{{sqltypes.NewInt(1), arr(tc.label[0]), arr(tc.label[1]), arr(tc.label[2])}}},
			"aux_ld": aux,
		}
		q := fmt.Sprintf(SQLKNNLD, "aux_ld", w, "lout")
		params := []sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewInt(at), sqltypes.NewInt(tc.k)}
		if tc.k == 0 {
			q, params = fmt.Sprintf(SQLOTMLD, "aux_ld", w, "lout"), params[:2]
		}
		diffRun(t, cat, q, params)
		var probed, want [][2]int64
		if _, err := mustFuse(t, keyLogCatalog{cat, &probed}, q).Run(params); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, hub := range tc.probes {
			want = append(want, [2]int64{at / w, hub})
		}
		if !slices.Equal(probed, want) {
			t.Errorf("%s: looked up %v, want %v", tc.name, probed, want)
		}
	}
}

// orderLDArms reorders both arms of every row of an LD condensed table, each
// arm's parallel columns together: as the builder stores them — the top-k arm
// by tds descending, the expanded arm by tds_exp ascending, so the fold walks
// both with thresholds ascending — or, when shuffle, in a random order, in
// which the fold's cursor is often wrong.
func orderLDArms(rng *rand.Rand, tbl *memTable, shuffle bool) {
	for _, row := range tbl.rows {
		for _, arm := range [][]int{{3, 2}, {4, 5, 6}} { // the threshold column first
			th := row[arm[0]].A
			perm := make([]int, len(th))
			for i := range perm {
				perm[i] = i
			}
			sign := 1
			if arm[0] == 3 { // the top-k arm descends
				sign = -1
			}
			if shuffle {
				rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			} else {
				slices.SortStableFunc(perm, func(a, b int) int { return sign * cmp.Compare(th[a], th[b]) })
			}
			for _, c := range arm {
				col := make([]int32, len(perm))
				for i, p := range perm {
					col[i] = row[c].A[p]
				}
				row[c] = sqltypes.NewIntArray(col)
			}
		}
	}
}

// FuzzCondensedKNNStop: over a run-ordered label and an EA and an LD condensed
// table — the EA one inside its declared floor, all drawn from seed and moved
// by a drawn number of buckets, often below zero — and any t and k, with stops
// -7..7 as q (1..5 have labels), the four condensed statements (drawn from
// seed) answer what the general executor answers, or fail where it fails: the
// EA kNN and one-to-many, which stop their sweep early, and the LD kNN, which
// skips hubs, all over a fold that keeps a cursor per arm. The EA table
// declares the count of its distinct target ids, one time in three
// overstated; the LD table's arms are in the builder's order, one time in
// three shuffled, which leaves the cursor wrong.
func FuzzCondensedKNNStop(f *testing.F) {
	for _, s := range [][4]int64{{1, 1, 0, 1}, {2, 3, 120, 2}, {3, 5, -400, 4}, {4, 2, 90, 1 << 40}, {5, 4, math.MinInt64, 3}, {6, 1, 50, -1}} {
		f.Add(s[0], s[1], s[2], s[3])
	}
	var sels [4]*sql.Select
	for i, text := range []string{SQLKNNEA, SQLOTMEA, SQLKNNLD, SQLOTMLD} {
		aux := "aux_ea"
		if i >= 2 {
			aux = "aux_ld"
		}
		sel, err := sql.Parse(fmt.Sprintf(text, aux, auxWidth, "lout"))
		if err != nil {
			f.Fatal(err)
		}
		sels[i] = sel
	}
	f.Fuzz(func(t *testing.T, seed, q, at, k int64) {
		rng := rand.New(rand.NewSource(seed))
		cat := memCatalog{
			"lout":   randLabelTable(rng, 5, 8),
			"aux_ea": randAuxTable(rng, "dephour", "tas"),
			"aux_ld": randAuxTable(rng, "arrhour", "tds"),
		}
		if rng.Intn(3) == 0 {
			cat["aux_ea"].count += 1 + rng.Intn(3)
		}
		orderLDArms(rng, cat["aux_ld"], rng.Intn(3) == 0)
		kind := rng.Intn(4) // the EA kNN, the EA one-to-many, the LD kNN, the LD one-to-many
		sel := sels[kind]
		fp, err := Fuse(sel, cat)
		if err != nil {
			t.Fatal(err)
		}
		d := (int64(rng.Intn(21)) - 10) * auxWidth
		for _, row := range cat["lout"].rows {
			for _, c := range row[2:4] { // tds, tas
				for i := range c.A {
					c.A[i] += int32(d)
				}
			}
		}
		for _, aux := range []string{"aux_ea", "aux_ld"} {
			for _, row := range cat[aux].rows {
				row[1].I += d / auxWidth
				for _, c := range []int{3, 4, 6} { // tas or tds, tds_exp, tas_exp
					for i := range row[c].A {
						row[c].A[i] += int32(d)
					}
				}
			}
		}
		params := []sqltypes.Value{sqltypes.NewInt(q % 8), sqltypes.NewInt(at), sqltypes.NewInt(k)}
		if kind%2 == 1 {
			params = params[:2] // no LIMIT
		}
		want, wantErr := Run(sel, cat, params)
		got, err := fp.Run(params)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("params %v: fused error %v, general error %v", params, err, wantErr)
		}
		if err == nil {
			compareRelations(t, got, want, params)
		}
	})
}

// TestFusedPlanSharedAcrossGoroutines runs one prepared plan per condensed
// kind from 8 goroutines at once, each over its own parameter list, through
// the test tables' hostile buffer reuse. Every answer must equal the one
// computed single-threaded beforehand: pooled query state that leaked between
// queries would show as a wrong or torn result (and as a race under -race).
func TestFusedPlanSharedAcrossGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const width, workers, perWorker = awkwardWidth, 8, 60
	cat := awkwardCatalog(rng, true)
	cat["naive"] = randNaiveTable(rng)
	for _, q := range []string{
		fmt.Sprintf(SQLKNNEA, "aux_ea", width, "lout"),
		fmt.Sprintf(SQLKNNLD, "aux_ld", width, "lout"),
		fmt.Sprintf(SQLOTMEA, "aux_ea", width, "lout"),
		fmt.Sprintf(SQLOTMLD, "aux_ld", width, "lout"),
		fmt.Sprintf(SQLKNNNaiveEA, "naive", "lout"),
		fmt.Sprintf(SQLKNNNaiveLD, "naive", "lout"),
		fmt.Sprintf(SQLV2VEA, "lout", "lout"),
	} {
		fp := mustFuse(t, cat, q)
		params := make([][][]sqltypes.Value, workers)
		want := make([][]*Relation, workers)
		for w := range params {
			for i := 0; i < perWorker; i++ {
				stop, when := sqltypes.NewInt(int64(rng.Intn(8))), sqltypes.NewInt(int64(rng.Intn(800))-400)
				p := []sqltypes.Value{stop, when, sqltypes.NewInt(int64(1 + rng.Intn(7)))} // a one-to-many ignores $3
				if fp.v2v != nil {
					p = []sqltypes.Value{stop, sqltypes.NewInt(int64(rng.Intn(8))), when}
				}
				rel, err := fp.Run(p)
				if err != nil {
					t.Fatalf("%s %v: %v", fp.Kind(), p, err)
				}
				params[w], want[w] = append(params[w], p), append(want[w], rel)
			}
		}
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i, p := range params[w] {
					got, err := fp.Run(p)
					if err != nil {
						errs <- fmt.Errorf("%s %v: %v", fp.Kind(), p, err)
						return
					}
					if fmt.Sprint(got.Rows) != fmt.Sprint(want[w][i].Rows) {
						errs <- fmt.Errorf("%s %v: concurrent answer %v, single-threaded %v",
							fp.Kind(), p, got.Rows, want[w][i].Rows)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}
