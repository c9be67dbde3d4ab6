package exec

// fused_exec.go evaluates a FusedPlan directly over the label tables' typed
// column vectors: int64 scalars and int32 array elements, each element
// widened to int64 where a kernel loads it, so no comparison or difference
// of two elements can overflow. Each Run works in a queryState of its own,
// taken from the plan's pool (fused_state.go), so a plan is safe for
// concurrent use. The tables and their layout were bound and checked once,
// by Fuse; what Fuse cannot know — integer parameters, arrays of matching
// lengths, target ids inside the declared bound — is checked here, and a
// violation is an error naming the plan's code or the table. The order of a
// label's arrays is not among them: a table declares it (Table.RunOrder),
// Load validated it where the row was written, and the kernels trust it.

import (
	"fmt"
	"math"

	"ptldb/internal/sqldb/sqltypes"
)

// Run evaluates the fused plan over its tables with the given parameters.
func (p *FusedPlan) Run(params []sqltypes.Value) (*Relation, error) {
	st := p.acquire()
	defer p.release(st)
	switch {
	case p.v2v != nil:
		return p.runV2V(params, st)
	case p.knn != nil:
		return p.runKNNNaive(params, st)
	default:
		return p.runCondensed(params, st)
	}
}

// intParam reads the 1-based parameter n, which must be a BIGINT.
//
// hotpath — allocheck root: parameter decode for every fused code.
func (p *FusedPlan) intParam(params []sqltypes.Value, n int) (int64, error) {
	if n > len(params) || params[n-1].T != sqltypes.Int64 {
		return 0, p.paramErr(params, n)
	}
	return params[n-1].I, nil
}

// paramErr says what is wrong with parameter n.
//
// hotpath:cold — a caller bug.
func (p *FusedPlan) paramErr(params []sqltypes.Value, n int) error {
	if n > len(params) {
		return fmt.Errorf("exec: %s: parameter $%d is missing", p.code, n)
	}
	return fmt.Errorf("exec: %s: parameter $%d is %s, want BIGINT", p.code, n, params[n-1].T)
}

// limitParam reads the LIMIT parameter n, a non-negative BIGINT.
func (p *FusedPlan) limitParam(params []sqltypes.Value, n int) (int, error) {
	k, err := p.intParam(params, n)
	if err == nil && k < 0 {
		err = fmt.Errorf("exec: %s: negative LIMIT %d in parameter $%d", p.code, k, n)
	}
	return int(k), err
}

// firstGE returns the first index in [lo, hi) whose value is at least v, or
// hi; a[lo:hi] must be non-decreasing. It gallops from lo — probes at doubling
// distances, then a binary search of the last gap — so it costs the logarithm
// of the distance moved, not of hi-lo.
//
// hotpath — allocheck root: the run-order join's search over run hubs and
// tds.
func firstGE(a []int32, lo, hi int, v int64) int {
	for step := 1; lo+step <= hi; step <<= 1 {
		if int64(a[lo+step-1]) >= v {
			hi = lo + step - 1
			break
		}
		lo += step
	}
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); int64(a[m]) < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// firstGT is firstGE for the first value greater than v — one past the last
// value <= v — without a v+1 to overflow at math.MaxInt64.
//
// hotpath — allocheck root: the run-order join's LD bounds.
func firstGT(a []int32, lo, hi int, v int64) int {
	for step := 1; lo+step <= hi; step <<= 1 {
		if int64(a[lo+step-1]) > v {
			hi = lo + step - 1
			break
		}
		lo += step
	}
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); int64(a[m]) <= v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// firstGTFrom is firstGT searching from hint rather than lo when the value
// before hint is <= v, so a caller searching for ascending values keeps a
// forward cursor: each search costs the logarithm of the distance from the
// last answer, not from lo. Like storage.FindFrom it validates the hint and
// never trusts it: the answer is firstGT(a, lo, hi, v) for every hint, in
// [lo, hi] or not, and a wrong one costs a search from lo.
//
// hotpath — allocheck root: the LD condensed fold's cursor over a hub's run.
func firstGTFrom(a []int32, lo, hi, hint int, v int64) int {
	if lo < hint && hint <= hi && int64(a[hint-1]) <= v {
		lo = hint
	}
	return firstGT(a, lo, hi, v)
}

// --- Code 1: vertex-to-vertex ------------------------------------------------

func (p *FusedPlan) runV2V(params []sqltypes.Value, st *queryState) (*Relation, error) {
	f := p.v2v
	outV, err := p.intParam(params, f.outVParam)
	if err != nil {
		return nil, err
	}
	inV, err := p.intParam(params, f.inVParam)
	if err != nil {
		return nil, err
	}
	t, err := p.intParam(params, f.tParam)
	if err != nil {
		return nil, err
	}
	var tEnd int64
	if f.op == 'S' {
		tEnd, err = p.intParam(params, f.tEndParam)
		if err != nil {
			return nil, err
		}
	}
	// One scratch serves both labels: the arena only grows within a query.
	out, err := p.tables[0].label(outV, st)
	if err != nil {
		return nil, err
	}
	in, err := p.tables[1].label(inV, st)
	if err != nil {
		return nil, err
	}

	best, hasBest := int64(0), false
	var witness [5]int64 // the statement's row, under hasBest: its in.ta is best
	// merged counts fold calls — label tuple (pairs) reaching the aggregate.
	// The fold closure never escapes runV2V, so the captured counter stays on
	// the stack and the instrumentation costs no allocation.
	merged := uint64(0)
	fold := func(v int64) {
		merged++
		if !hasBest || (f.op == 'L' && v > best) || (f.op != 'L' && v < best) {
			best, hasBest = v, true
		}
	}

	// Run-order join (DESIGN.md §7.2): both tables declare, and Load
	// validated, that hubs ascend and that tds and tas both ascend within a
	// hub's run, and both serve a label's hubs as its runs. Gallop over the
	// run hubs to each common hub and search its two runs, whose bounds the
	// run ends give.
	no, ni := len(out.hubs), len(in.hubs)
	for ro, ri := 0, 0; ro < no && ri < ni; {
		h := int64(out.hubs[ro])
		if hj := int64(in.hubs[ri]); h < hj {
			ro = firstGE(out.hubs, ro, no, hj)
			continue
		} else if h > hj {
			ri = firstGE(in.hubs, ri, ni, h)
			continue
		}
		i, ie := out.run(ro)
		j, je := in.run(ri)
		ro, ri = ro+1, ri+1
		switch f.op {
		case 'E':
			// The first departure >= t arrives earliest, so it reaches
			// most of the in run, whose first tuple arrives earliest.
			if x := firstGE(out.tds, i, ie, t); x < ie {
				if y := firstGE(in.tds, j, je, int64(out.tas[x])); y < je {
					fold(int64(in.tas[y]))
				}
			}
		case 'L':
			// The mirror: the last arrival <= t departs latest; the last
			// out tuple reaching it is the latest departure.
			if y := firstGT(in.tas, j, je, t); y > j {
				if x := firstGT(out.tas, i, ie, int64(in.tds[y-1])); x > i {
					fold(int64(out.tds[x-1]))
				}
			}
		case 'S':
			// Per departure >= t the first in tuple it reaches; once that
			// arrives after tEnd, so does every later departure's.
			y := j
			for x := firstGE(out.tds, i, ie, t); x < ie; x++ {
				y = firstGE(in.tds, y, je, int64(out.tas[x]))
				if y == je || int64(in.tas[y]) > tEnd {
					break
				}
				fold(int64(in.tas[y]) - int64(out.tds[x]))
			}
		case 'W':
			// The EA fold, then the statement's ORDER BY among the pairs of
			// this hub that arrive at arr: in[y0:y1] arrive then, and the last
			// of them departs latest, so the last out tuple reaching it is the
			// latest departure dep; of the out tuples departing at dep the
			// first arrives earliest, and the first in tuple it reaches
			// departs earliest. Hubs ascend, so a later hub replaces the row
			// only by arriving earlier or, arriving with it, departing later.
			x0 := firstGE(out.tds, i, ie, t)
			if x0 == ie {
				break
			}
			y0 := firstGE(in.tds, j, je, int64(out.tas[x0]))
			if y0 == je {
				break
			}
			merged++
			arr := int64(in.tas[y0])
			if hasBest && arr > best {
				break
			}
			y1 := firstGT(in.tas, y0, je, arr)
			xm := firstGT(out.tas, x0, ie, int64(in.tds[y1-1])) - 1
			dep := int64(out.tds[xm])
			if hasBest && arr == best && dep <= witness[1] {
				break
			}
			x := firstGE(out.tds, x0, xm+1, dep)
			y := firstGE(in.tds, y0, y1, int64(out.tas[x]))
			best, hasBest = arr, true
			witness = [5]int64{h, dep, int64(out.tas[x]), int64(in.tds[y]), arr}
		}
	}

	p.metrics.TuplesMerged.Add(merged)
	if f.op == 'W' {
		if !hasBest {
			return &Relation{Schema: p.schema}, nil
		}
		row := make(sqltypes.Row, len(witness))
		for c, v := range witness {
			row[c] = sqltypes.NewInt(v)
		}
		return &Relation{Schema: p.schema, Rows: []sqltypes.Row{row}}, nil
	}
	// MIN/MAX with no GROUP BY over empty input yields one NULL row.
	v := sqltypes.Null
	if hasBest {
		v = sqltypes.NewInt(best)
	}
	return &Relation{Schema: p.schema, Rows: []sqltypes.Row{{v}}}, nil
}

// --- Code 2: naive kNN -------------------------------------------------------

func (p *FusedPlan) runKNNNaive(params []sqltypes.Value, st *queryState) (*Relation, error) {
	f := p.knn
	q, err := p.intParam(params, f.qParam)
	if err != nil {
		return nil, err
	}
	t, err := p.intParam(params, f.tParam)
	if err != nil {
		return nil, err
	}
	k, err := p.limitParam(params, f.kParam)
	if err != nil {
		return nil, err
	}
	if k == 0 {
		return &Relation{Schema: p.schema}, nil
	}
	lab, err := p.tables[0].label(q, st)
	if err != nil {
		return nil, err
	}
	naive := &p.tables[1]
	ix := &naive.idx
	st.acc.reset(naive.bound)
	// The scan decodes into a scratch of its own: it recycles the arena per
	// row, and on the segment tier the label an LD query searches lives in
	// st.scratch's. The callbacks escape through the Table interface; they
	// count folds in st.merged, which is published once after the scan.
	if f.ea {
		// A naive row joins some label tuple iff the label's earliest arrival
		// at the row's hub (among departures >= t) is <= the row's departure;
		// MIN(n2.ta) is independent of which tuple joined.
		st.groupEA(lab, t, 0)
	} else {
		// LD aggregates MAX(n1.td) over the joining label tuples: the best
		// departure among tuples arriving at the row's hub by its departure.
		st.groupLD(lab, 0)
	}
	if len(st.groups) == 0 {
		return &Relation{Schema: p.schema}, nil
	}
	err = naive.tb.ScanScratch(&st.scan, func(row sqltypes.Row) error {
		hv, dv, vv, av := row[ix[naiveHub]], row[ix[naiveTd]], row[ix[naiveVs]], row[ix[naiveTas]]
		if hv.T != sqltypes.Int64 || dv.T != sqltypes.Int64 ||
			vv.T != sqltypes.IntArray || av.T != sqltypes.IntArray ||
			len(vv.A) != len(av.A) {
			return naive.lengthsErr(naiveVs, naiveTas)
		}
		g := st.groupByHub(hv.I)
		if g == nil {
			return nil
		}
		kl := min(k, len(vv.A))
		if f.ea {
			if dv.I < g.minTa {
				return nil
			}
			for j := 0; j < kl; j++ {
				st.acc.foldMin(int64(vv.A[j]), int64(av.A[j]))
			}
			st.merged += uint64(kl)
			return nil
		}
		dep, _, ok := st.bestDeparture(g, dv.I, int(g.lo))
		if !ok {
			return nil
		}
		for j := 0; j < kl; j++ {
			if int64(av.A[j]) <= t {
				st.acc.foldMax(int64(vv.A[j]), dep)
				st.merged++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p.emit(st, k, true, !f.ea)
}

// emit ends a grouped query: it publishes the fold count and returns the
// accumulated targets in topK's order, or the error of a folded target id
// outside the bound the second table declares (a violated storage invariant:
// Load validates every element of a declared column).
func (p *FusedPlan) emit(st *queryState, k int, limited, desc bool) (*Relation, error) {
	if a := &st.acc; a.strayed {
		return nil, fmt.Errorf("exec: table %q: target id %d is outside the declared [0, %d)", p.tables[1].name, a.stray, len(a.slots))
	}
	p.metrics.TuplesMerged.Add(st.merged)
	return entriesToRows(p.schema, st.acc.topK(k, limited, desc)), nil
}

// --- Codes 3 and 4: condensed kNN and one-to-many ----------------------------

// condArms are the typed arm arrays of one condensed-table row, the top-k arm
// already cut to the query's k.
type condArms struct {
	topV, topVal       []int32
	expTd, expV, expTa []int32
}

// hotpath — allocheck root: per distinct condensed row.
func (c *condArms) load(row sqltypes.Row, ix *[maxFusedCols]int, k int, limited bool) bool {
	tv, tval := row[ix[auxTopV]], row[ix[auxTopVal]]
	etd, ev, eta := row[ix[auxExpTd]], row[ix[auxExpV]], row[ix[auxExpTa]]
	if tv.T != sqltypes.IntArray || tval.T != sqltypes.IntArray ||
		etd.T != sqltypes.IntArray || ev.T != sqltypes.IntArray ||
		eta.T != sqltypes.IntArray ||
		len(tv.A) != len(tval.A) ||
		len(etd.A) != len(ev.A) || len(etd.A) != len(eta.A) {
		return false
	}
	kl := len(tv.A)
	if limited && k < kl {
		kl = k
	}
	c.topV, c.topVal = tv.A[:kl], tval.A[:kl]
	c.expTd, c.expV, c.expTa = etd.A, ev.A, eta.A
	return true
}

// foldEA folds one condensed row for a group of label tuples whose earliest
// arrival at the hub is g.minTa: the top-k arm unconditionally, the expanded
// arm where that arrival reaches the connection's departure. The arms' inner
// ORDER BY/LIMIT never affect the outer re-grouped top-k.
//
// hotpath — allocheck root: the EA inner loops.
func (st *queryState) foldEA(c *condArms, g *hubGroup) {
	for x, v := range c.topV {
		st.acc.foldMin(int64(v), int64(c.topVal[x]))
	}
	st.merged += uint64(len(c.topV))
	for x, td := range c.expTd {
		if g.minTa <= int64(td) {
			st.acc.foldMin(int64(c.expV[x]), int64(c.expTa[x]))
			st.merged++
		}
	}
}

// foldLD folds one condensed row for all label tuples of g's hub: the top-k
// arm qualifies connections departing no earlier than a tuple's arrival, the
// expanded arm additionally bounds the connection's arrival by t; both fold
// the best departure among the tuples that qualify. Each arm threads one
// cursor through its searches of the hub's run, walking its thresholds in the
// order the builders store them ascending: the top-k arm's tds descend, so it
// is walked last to first, and the expanded arm's tds_exp ascend. Nothing
// trusts that order — bestDeparture validates the cursor — and the fold order
// is free: MAX is idempotent and commutative.
//
// hotpath — allocheck root: the LD inner loops.
func (st *queryState) foldLD(c *condArms, g *hubGroup, t int64) {
	pos := int(g.lo)
	for x := len(c.topV) - 1; x >= 0; x-- {
		td, end, ok := st.bestDeparture(g, int64(c.topVal[x]), pos)
		pos = end
		if ok {
			st.acc.foldMax(int64(c.topV[x]), td)
			st.merged++
		}
	}
	pos = int(g.lo)
	for x, v := range c.expV {
		if int64(c.expTa[x]) > t {
			continue
		}
		td, end, ok := st.bestDeparture(g, int64(c.expTd[x]), pos)
		pos = end
		if ok {
			st.acc.foldMax(int64(v), td)
			st.merged++
		}
	}
}

func (p *FusedPlan) runCondensed(params []sqltypes.Value, st *queryState) (*Relation, error) {
	f := p.cond
	q, err := p.intParam(params, f.qParam)
	if err != nil {
		return nil, err
	}
	t, err := p.intParam(params, f.tParam)
	if err != nil {
		return nil, err
	}
	k, limited := 0, f.kParam > 0
	if limited {
		if k, err = p.limitParam(params, f.kParam); err != nil {
			return nil, err
		}
		if k == 0 {
			return &Relation{Schema: p.schema}, nil
		}
	}
	lab, err := p.tables[0].label(q, st)
	if err != nil {
		return nil, err
	}
	aux := &p.tables[1]
	st.acc.reset(aux.bound)

	// Walk the label once, keeping per (hub, bucket) key only what dominates:
	// EA probes FLOOR(ta/width) per tuple departing >= t, LD the one bucket
	// FLOOR(t/width) per hub. Every condensed row is then fetched and folded
	// at most once, in the table's key order — the order its rows are stored
	// in. The fold order is free: the accumulator keeps a MIN or MAX per
	// target and topK is a total order.
	if f.ea {
		st.groupEA(lab, t, p.width)
	} else {
		st.groupLD(lab, FloorDiv(t, p.width))
	}
	st.orderGroups()
	// On the segment tier the label lives in the arena and an LD query keeps
	// searching it; each row is consumed before the next fetch, so the arena
	// holds the label and one row after it.
	labEnd := len(st.scratch.Arena)
	var arms condArms
	// The EA stop rule (DESIGN.md §7.4): the table declares every value a row
	// of bucket b folds to be >= b × width, and the probes ascend by bucket.
	// The answer is settled by its best settle targets: a kNN's k, and all of
	// a one-to-many's, which the table declares it holds at most settle of.
	// Once b × width exceeds the settle-th best value so far, no row left can
	// add a target, lower a kept value or displace one, so the sweep ends
	// there.
	settle := k
	if !limited {
		settle = aux.count
	}
	bucket := int64(math.MinInt64)
	// The LD kNN skip (DESIGN.md §7.4): every value foldLD folds for a group
	// is a departure of its hub's run, so at most the run's last. Once k
	// targets are in and that bound is strictly below tau, the k-th largest
	// value so far, the group can neither enter the top k nor raise a kept
	// value, so its row is not fetched. Groups come in hub order, not in bound
	// order: a later group may still count, so this skips and never stops. An
	// LD one-to-many has no k and fetches every group.
	tau, skip := int64(0), false
	for i := range st.groups {
		g := &st.groups[i]
		if f.ea && g.bucket != bucket {
			bucket = g.bucket
			if kth, ok := st.kthVal(settle, false); ok && bucket > FloorDiv(kth, p.width) {
				break
			}
		}
		if skip && int64(st.lab.tds[g.hi-1]) < tau {
			continue
		}
		st.scratch.Arena = st.scratch.Arena[:labEnd]
		st.key = [2]int64{g.bucket, g.hub}
		row, found, err := aux.tb.LookupPKScratch(st.key[:], &st.scratch)
		if err != nil {
			return nil, err
		}
		if !found {
			continue
		}
		if !arms.load(row, &aux.idx, k, limited) {
			return nil, aux.lengthsErr(auxTopV, auxTopVal, auxExpTd, auxExpV, auxExpTa)
		}
		if f.ea {
			st.foldEA(&arms, g)
			continue
		}
		st.foldLD(&arms, g, t)
		if limited {
			tau, skip = st.kthVal(k, true)
		}
	}
	return p.emit(st, k, limited, !f.ea)
}

// FloorDiv returns floor(a/b) for b > 0, matching FLOOR(a/b.0) in the
// condensed SQL: the bucket of a negative timestamp is the one below zero,
// where Go's integer division would truncate toward it. It is the engine's one
// floor division: sqldb's Load checks a declared floor with it too.
//
// hotpath — allocheck root: per-entry bucket arithmetic in the condensed scan.
func FloorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}
