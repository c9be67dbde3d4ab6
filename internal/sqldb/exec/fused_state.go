package exec

// fused_state.go holds what a fused query needs besides its inputs: the
// tables a plan reads, bound with their column positions once by Fuse, and the
// pooled per-query state — row scratch, the (hub, bucket) grouping of the
// query stop's label and, for LD, the label itself with the cursor search of
// its hub runs, the per-target MIN/MAX accumulator, and the selection of its
// k-th best value, which stops an EA sweep and skips LD kNN groups. Nothing
// here touches a Go map or a hash: grouping walks the label's declared runs,
// and the accumulator is an epoch-stamped array indexed by target id, so
// starting a query costs a counter increment rather than a clear, and a
// steady-state query allocates only its result.

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"ptldb/internal/sqldb/sqltypes"
)

// --- table layouts -----------------------------------------------------------

// maxFusedCols bounds the columns a fused operator reads from one table (the
// condensed table's seven).
const maxFusedCols = 7

// Column slots of the three table shapes, in tableRef.cols order.
const (
	labV, labHubs, labTds, labTas = 0, 1, 2, 3

	naiveHub, naiveTd, naiveVs, naiveTas = 0, 1, 2, 3

	auxBucket, auxHub, auxTopV, auxTopVal, auxExpTd, auxExpV, auxExpTa = 0, 1, 2, 3, 4, 5, 6
)

// tableRef is one base table a fused plan reads: the columns it needs from
// it, and how many of the leading ones must be exactly the primary key, in key
// order — (bucket, hub) for a condensed table, whose rows and so whose pages
// follow that order. A label table must also declare its run order over
// exactly its hubs, tds and tas: the kernels search the runs and never
// re-check them. A naive or condensed table must declare the bound of its
// target ids over the columns the plan folds: the accumulator is an array of
// that size. An EA condensed table must declare the floor of the values the
// plan folds by its bucket column at the plan's width, and an EA one-to-many
// table the count of its distinct target ids: the sweep stops by them. Fuse
// checks all of it once, in bind, and keeps the table, the position of each
// column in it and its declared bound and count.
type tableRef struct {
	name    string
	cols    []string
	pk      int   // leading cols that must be the table's PK columns; 0 = unchecked
	targets []int // slots of cols that hold target ids, whose bound the table must declare; nil for a label table
	counted bool  // the table must also declare the count of its distinct target ids
	// floor holds the slots of cols whose elements the table must declare to be
	// at least cols[0] × width; nil when the plan needs no floor.
	floor []int
	width int64

	// What bind finds: the table, the position of each of cols in it, and its
	// declared target-id bound and count of distinct ids (0 when it declares
	// none).
	tb           Table
	idx          [maxFusedCols]int
	bound, count int
}

// bind looks the table up in cat and checks it has what r needs: an error
// names the table when it is missing, lacks a column, has a different key
// shape, is a label table that declares no run order, or folds target ids it
// declares no bound or count for or values it declares no floor for. Each is
// a table the current build does not write, so the remedy is a rebuild.
func (r *tableRef) bind(cat Catalog) error {
	tb, ok := cat.Table(r.name)
	if !ok {
		return r.bindErr("not in the catalog")
	}
	cols := tb.Columns()
	for i, name := range r.cols {
		r.idx[i] = slices.IndexFunc(cols, func(c string) bool { return strings.EqualFold(c, name) })
		if r.idx[i] < 0 {
			return r.bindErr("no column %q", name)
		}
	}
	if r.pk > 0 && !slices.Equal(tb.PKCols(), r.idx[:r.pk]) {
		return r.bindErr("primary key is not (%s)", strings.Join(r.cols[:r.pk], ", "))
	}
	if r.targets == nil && !slices.Equal(tb.RunOrder(), r.idx[labHubs:labTas+1]) {
		return r.bindErr("does not declare the run order (%s)", strings.Join(r.cols[labHubs:], ", "))
	}
	declared, bound, count := tb.TargetBound()
	for _, c := range r.targets {
		if bound < 1 || !slices.Contains(declared, r.idx[c]) {
			return r.bindErr("does not declare the bound of its target ids in %q", r.cols[c])
		}
	}
	if r.counted && count < 1 {
		return r.bindErr("does not declare its target count")
	}
	if r.floor != nil {
		key, width, declared := tb.Floor()
		for _, c := range r.floor {
			if key != r.idx[0] || width != r.width || !slices.Contains(declared, r.idx[c]) {
				return r.bindErr("does not declare the floor %s × %d of its values in %q", r.cols[0], r.width, r.cols[c])
			}
		}
	}
	r.tb, r.bound, r.count = tb, bound, count
	return nil
}

// bindErr is bind's error: what is wrong with the table, and the remedy.
func (r *tableRef) bindErr(format string, a ...any) error {
	return fmt.Errorf("exec: table %q: %s; rebuild the database", r.name, fmt.Sprintf(format, a...))
}

// lengthsErr reports a row whose parallel arrays are not all BIGINT[] of one
// length — a violated storage invariant (BulkLoad validates a declared run
// order; the condensed builders emit parallel arrays).
func (r *tableRef) lengthsErr(cols ...int) error {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = r.cols[c]
	}
	return fmt.Errorf("exec: table %q: a row's %s are not BIGINT[] values of one length", r.name, strings.Join(names, ", "))
}

// label is one stop's hub label as three parallel typed columns, run-ordered:
// hubs ascend, and tds and tas both ascend within a hub's run.
type label struct {
	hubs, tds, tas []int64
}

// label point-looks-up the label of stop v in the referenced label table,
// decoding through st's scratch. The returned arrays stay valid until the
// scratch arena is truncated below them. A missing stop yields an empty label.
//
// hotpath — allocheck root: the per-query label fetch shared by every fused
// code; it must not allocate beyond the scratch it is handed.
func (r *tableRef) label(v int64, st *queryState) (label, error) {
	st.key[0] = v
	row, found, err := r.tb.LookupPKScratch(st.key[:1], &st.scratch)
	if err != nil {
		return label{}, err
	}
	if !found {
		return label{}, nil
	}
	hv, dv, av := row[r.idx[labHubs]], row[r.idx[labTds]], row[r.idx[labTas]]
	if hv.T != sqltypes.IntArray || dv.T != sqltypes.IntArray || av.T != sqltypes.IntArray ||
		len(hv.A) != len(dv.A) || len(hv.A) != len(av.A) {
		return label{}, r.lengthsErr(labHubs, labTds, labTas)
	}
	return label{hubs: hv.A, tds: dv.A, tas: av.A}, nil
}

// --- per-target accumulator ----------------------------------------------------

// kEntry is one (target, aggregate) result of a grouped query.
type kEntry struct {
	v, val int64
}

// targetAcc is the GROUP BY v2 accumulator: an array indexed by target id —
// ids are stop ids, dense in [0, len(slots)), the bound the table declares —
// whose slots carry the epoch they were written in, so reset is a counter
// increment, and the position of the target in entries, which therefore lists
// the touched targets with their running MIN or MAX in first-touch order.
type targetAcc struct {
	slots   []accSlot // one per id of the bound table
	epoch   uint32
	entries []kEntry
	// stray is the first folded id outside the bound, under strayed: the fold
	// drops it, and the kernel reports it once the scan is over (emit).
	stray   int64
	strayed bool
}

type accSlot struct {
	pos, epoch uint32
}

// reset empties the accumulator and binds it to target ids in [0, bound). A
// pooled accumulator keeps its largest array; one bound to a smaller table
// still rejects ids past that table's bound.
//
// hotpath — allocheck root: once per kNN / one-to-many query; it allocates
// only on the first query against a larger table.
func (a *targetAcc) reset(bound int) {
	a.entries, a.strayed = a.entries[:0], false
	if cap(a.slots) < bound {
		a.slots = make([]accSlot, bound)
	}
	a.slots = a.slots[:bound]
	a.epoch++
	if a.epoch == 0 { // wrapped: stale stamps could alias, so start over
		clear(a.slots[:cap(a.slots)])
		a.epoch = 1
	}
}

// slot returns the entry of target v, appended with val when v is new this
// epoch, or nil — recording v — when v is outside the bound.
//
// hotpath — allocheck root: per fold.
func (a *targetAcc) slot(v, val int64) *kEntry {
	if uint64(v) >= uint64(len(a.slots)) {
		if !a.strayed {
			a.stray, a.strayed = v, true
		}
		return nil
	}
	s := &a.slots[v]
	if s.epoch == a.epoch {
		return &a.entries[s.pos]
	}
	*s = accSlot{pos: uint32(len(a.entries)), epoch: a.epoch}
	a.entries = append(a.entries, kEntry{v, val})
	return &a.entries[len(a.entries)-1]
}

// foldMin folds val into the entry of v, keeping the minimum.
//
// hotpath — allocheck root: per condensed-arm entry in the kNN scans.
func (a *targetAcc) foldMin(v, val int64) {
	if e := a.slot(v, val); e != nil && val < e.val {
		e.val = val
	}
}

// foldMax folds val into the entry of v, keeping the maximum.
//
// hotpath — allocheck root: per condensed-arm entry in the kNN scans.
func (a *targetAcc) foldMax(v, val int64) {
	if e := a.slot(v, val); e != nil && val > e.val {
		e.val = val
	}
}

// entryAsc orders by (val, v); entryDesc by val descending, then v. Both are
// total orders over distinct targets, so sort stability never matters.
func entryAsc(a, b kEntry) int {
	if c := cmp.Compare(a.val, b.val); c != 0 {
		return c
	}
	return cmp.Compare(a.v, b.v)
}

func entryDesc(a, b kEntry) int {
	if c := cmp.Compare(b.val, a.val); c != 0 {
		return c
	}
	return cmp.Compare(a.v, b.v)
}

// topK orders the accumulated entries by (val, v) — val descending when desc —
// and keeps the first k when limited, matching the general executor's stable
// sort + truncate exactly. The bounded variant selects in place: entries[:k]
// is a heap whose root is the worst kept entry. The result aliases the
// accumulator and is only valid until its next reset.
func (a *targetAcc) topK(k int, limited, desc bool) []kEntry {
	e := a.entries
	order := entryAsc
	if desc {
		order = entryDesc
	}
	if limited && k < len(e) {
		h := e[:k]
		siftDown := func(i int) {
			for {
				m := i
				if l := 2*i + 1; l < k && order(h[l], h[m]) > 0 {
					m = l
				}
				if r := 2*i + 2; r < k && order(h[r], h[m]) > 0 {
					m = r
				}
				if m == i {
					return
				}
				h[i], h[m] = h[m], h[i]
				i = m
			}
		}
		for i := k/2 - 1; i >= 0; i-- {
			siftDown(i)
		}
		for _, x := range e[k:] {
			if order(x, h[0]) < 0 {
				h[0] = x
				siftDown(0)
			}
		}
		e = h
	}
	slices.SortFunc(e, order)
	return e
}

// kthVal returns the k-th smallest value among the accumulated entries — the
// k-th largest when desc — which is the value of the k-th row topK(k, true,
// desc) would return, or false when fewer than k targets are accumulated. It
// selects with a max-heap of the k best values in st.kth, so the entries,
// whose positions the accumulator's slots record, stay where they are. For
// desc the heap holds each value's bitwise complement, an order-reversing
// bijection of int64 that, unlike negation, cannot overflow.
//
// hotpath — allocheck root: at each new bucket of an EA kNN or one-to-many
// sweep, and after each folded row of an LD kNN.
func (st *queryState) kthVal(k int, desc bool) (int64, bool) {
	e := st.acc.entries
	if len(e) < k {
		return 0, false
	}
	flip := int64(0) // x ^ flip is x, or ^x when desc
	if desc {
		flip = -1
	}
	if cap(st.kth) < k {
		st.kth = make([]int64, k)
	}
	h := st.kth[:k]
	for i := range h {
		h[i] = e[i].val ^ flip
	}
	for i := k/2 - 1; i >= 0; i-- {
		siftDownMax(h, i)
	}
	for _, x := range e[k:] {
		if v := x.val ^ flip; v < h[0] {
			h[0] = v
			siftDownMax(h, 0)
		}
	}
	return h[0] ^ flip, true
}

// siftDownMax restores the max-heap order of h below position i.
//
// hotpath — allocheck root: kthVal's heap.
func siftDownMax(h []int64, i int) {
	for {
		m := i
		if l := 2*i + 1; l < len(h) && h[l] > h[m] {
			m = l
		}
		if r := 2*i + 2; r < len(h) && h[r] > h[m] {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// entriesToRows copies the entries into a fresh result; all rows share one
// backing array.
func entriesToRows(schema Schema, entries []kEntry) *Relation {
	vals := make([]sqltypes.Value, 2*len(entries))
	rows := make([]sqltypes.Row, len(entries))
	for i, e := range entries {
		r := vals[2*i : 2*i+2 : 2*i+2]
		r[0], r[1] = sqltypes.NewInt(e.v), sqltypes.NewInt(e.val)
		rows[i] = r
	}
	return &Relation{Schema: schema, Rows: rows}
}

// --- label grouping --------------------------------------------------------------

// hubGroup is the part of the query stop's label that probes one (hub,
// bucket) key, reduced to what dominates: every label tuple of the group
// folds a subset of what the dominating tuple folds (DESIGN.md §7.4).
type hubGroup struct {
	hub, bucket int64
	// EA: the earliest arrival at hub among the group's tuples departing at
	// or after t.
	minTa int64
	// LD: the hub's run of the label, queryState.lab's [lo, hi).
	lo, hi int32
}

// queryState is everything a fused query needs besides its inputs. One is
// taken from the plan's pool per Run and returned on exit; nothing in it is
// meaningful between queries, and no result aliases it.
type queryState struct {
	scratch RowScratch // the label, then one looked-up row at a time after it
	scan    RowScratch // the naive scan's rows: ScanScratch recycles its arena per row
	key     [2]int64   // lookup key buffer (escapes through the Table interface)

	// One group per distinct (hub, bucket) key of the label, in label order:
	// hubs ascend, and buckets ascend within a hub.
	groups []hubGroup
	lab    label // LD only: the label the groups' [lo, hi) index

	// Condensed only: positions of groups ascending in the aux table's key
	// order — the aux lookup order — and the per-bucket counts that build it.
	order, bucketCnt []int32

	acc    targetAcc
	kth    []int64 // condensed only: kthVal's heap (EA stop rule, LD kNN skip)
	merged uint64  // fold calls, published once per query
}

// acquire hands out a reset query state; the kernel that folds per target
// resets the accumulator itself, once it knows the table's bound.
func (p *FusedPlan) acquire() *queryState {
	st, _ := p.states.Get().(*queryState)
	if st == nil {
		st = new(queryState)
	}
	st.scratch.Arena = st.scratch.Arena[:0]
	st.groups = st.groups[:0]
	st.merged = 0
	return st
}

// release returns st to the pool, dropping the label and row views so a
// pooled state never keeps an evicted cache vector alive.
func (p *FusedPlan) release(st *queryState) {
	st.lab = label{}
	clear(st.scratch.Row[:cap(st.scratch.Row)])
	clear(st.scan.Row[:cap(st.scan.Row)])
	p.states.Put(st)
}

// groupOf returns the group of key (hub, bucket): the last one, or a new one.
// A label is run-ordered, so the tuples of one key are adjacent in it — in a
// hub's run arrivals ascend, and so do their buckets.
//
// hotpath — allocheck root: per label tuple.
func (st *queryState) groupOf(hub, bucket int64) (g *hubGroup, added bool) {
	if n := len(st.groups); n > 0 {
		if g = &st.groups[n-1]; g.hub == hub && g.bucket == bucket {
			return g, false
		}
	}
	st.groups = append(st.groups, hubGroup{hub: hub, bucket: bucket})
	return &st.groups[len(st.groups)-1], true
}

// groupByHub returns the group of hub in a grouping by hub alone (one bucket),
// whose groups ascend by hub, or nil.
//
// hotpath — allocheck root: per scanned row in the naive kNN.
func (st *queryState) groupByHub(hub int64) *hubGroup {
	lo, hi := 0, len(st.groups)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); st.groups[m].hub < hub {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(st.groups) || st.groups[lo].hub != hub {
		return nil
	}
	return &st.groups[lo]
}

// groupEA groups the label tuples departing at or after t by (hub,
// FLOOR(ta/width)) — by hub alone when width is 0 — keeping the earliest
// arrival per group: the first, since arrivals ascend within a hub's run.
//
// hotpath — allocheck root: the one walk over the label of an EA query.
func (st *queryState) groupEA(lab label, t, width int64) {
	for i, td := range lab.tds {
		if td < t {
			continue
		}
		ta, bucket := lab.tas[i], int64(0)
		if width > 0 {
			bucket = floorDiv(ta, width)
		}
		if g, added := st.groupOf(lab.hubs[i], bucket); added {
			g.minTa = ta
		}
	}
}

// groupLD groups every label tuple by hub (all probe the one given bucket),
// recording each hub's run [lo, hi) of the label, which st retains: inside a
// run arrivals and departures ascend together, so bestDeparture answers "the
// latest departure among tuples reaching the hub by x" with one search, and
// the run's last departure bounds every answer for the hub.
//
// hotpath — allocheck root: the one walk over the label of an LD query.
func (st *queryState) groupLD(lab label, bucket int64) {
	st.lab = lab
	for i, hub := range lab.hubs {
		g, added := st.groupOf(hub, bucket)
		if added {
			g.lo = int32(i)
		}
		g.hi = int32(i + 1)
	}
}

// maxCountedBuckets bounds the bucket span orderGroups counts over: 4 096
// hour-wide buckets are 170 days of timetable, and a pooled count array of
// that size is 16 KiB.
const maxCountedBuckets = 1 << 12

// orderGroups fills st.order with the positions of st.groups ascending in the
// condensed table's key order, (bucket, hub). A segment lays its rows out in
// key order, so probing in that order sweeps the file front to back: each page
// is read once and a run of adjacent rows is one sequential read. Groups
// appear in label order, which is hub-ascending — a declared, validated
// property of every label row — so one stable counting pass over the buckets
// puts them in key order.
//
// hotpath — allocheck root: once per condensed query, over its groups.
func (st *queryState) orderGroups() {
	n := len(st.groups)
	if cap(st.order) < n {
		st.order = make([]int32, n)
	}
	order := st.order[:n]
	st.order = order
	if n == 0 {
		return
	}
	lo, hi := st.groups[0].bucket, st.groups[0].bucket
	inOrder := true
	for i := range st.groups {
		order[i] = int32(i)
		if i == 0 {
			continue
		}
		a, b := &st.groups[i-1], &st.groups[i]
		lo, hi = min(lo, b.bucket), max(hi, b.bucket)
		inOrder = inOrder && a.keyLess(b)
	}
	if inOrder {
		return
	}
	span := uint64(hi) - uint64(lo) // exact even where hi-lo overflows int64
	if span >= maxCountedBuckets {
		// hotpath:cold — timestamps spread over more buckets than are worth
		// counting.
		slices.SortFunc(order, func(x, y int32) int {
			switch a, b := &st.groups[x], &st.groups[y]; {
			case a.keyLess(b):
				return -1
			case b.keyLess(a):
				return 1
			}
			return 0
		})
		return
	}
	// Stable counting sort by bucket: within a bucket the groups keep their
	// label order, which is hub-ascending.
	if cap(st.bucketCnt) < int(span)+2 {
		st.bucketCnt = make([]int32, span+2)
	}
	cnt := st.bucketCnt[:span+2]
	clear(cnt)
	for i := range st.groups {
		cnt[uint64(st.groups[i].bucket)-uint64(lo)+1]++
	}
	for b := 1; b < len(cnt); b++ {
		cnt[b] += cnt[b-1]
	}
	for i := range st.groups {
		b := uint64(st.groups[i].bucket) - uint64(lo)
		order[cnt[b]] = int32(i)
		cnt[b]++
	}
}

// keyLess orders two groups by the condensed key, (bucket, hub).
//
// hotpath — allocheck root: per group in orderGroups.
func (g *hubGroup) keyLess(o *hubGroup) bool {
	return g.bucket < o.bucket || (g.bucket == o.bucket && g.hub < o.hub)
}

// bestDeparture returns the latest departure among g's tuples arriving at the
// hub no later than x, or false when none does: the last such tuple's, since
// departures ascend with arrivals inside a run. It searches from pos when the
// tuple before pos arrives no later than x, else from the run's start
// (firstGTFrom), and returns where it stopped — the cursor for a next search
// with an x at least as large. Any pos gives the same answer.
//
// hotpath — allocheck root: per condensed-arm entry of an LD query.
func (st *queryState) bestDeparture(g *hubGroup, x int64, pos int) (int64, int, bool) {
	i := firstGTFrom(st.lab.tas, int(g.lo), int(g.hi), pos, x)
	if i == int(g.lo) {
		return 0, i, false
	}
	return st.lab.tds[i-1], i, true
}
