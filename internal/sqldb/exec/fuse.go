package exec

// fuse.go is the pattern recognizer of the fused execution path. It detects
// the paper's Codes 1-4 query skeleton — UNNEST(label arrays), equi-join on
// hub, filter, MIN/MAX aggregate, optionally GROUP BY v2 with ORDER BY and
// LIMIT k — in a parsed statement and compiles it into a FusedPlan that
// fused_exec.go evaluates directly over the typed int64 column vectors, with
// no per-element boxing and no intermediate Relation materialization.
//
// Recognition is strictly structural: every clause of the statement must
// destructure exactly into the recognized template, otherwise Fuse returns
// nil and the statement runs on the general executor. The general executor
// also remains the runtime fallback — FusedPlan.Run returns ErrNotFused
// whenever a precondition that cannot be checked at prepare time fails
// (non-integer parameters, unexpected table layout, NULL label arrays), and
// the caller re-runs the statement on the general path, which reproduces
// exact general semantics including errors.

import (
	"errors"
	"math"
	"strings"
	"sync"

	"ptldb/internal/sqldb/sql"
)

// ErrNotFused reports that a runtime precondition of the fused path does not
// hold and the caller must fall back to the general executor.
var ErrNotFused = errors.New("exec: not eligible for fused execution")

// FusedPlan is a compiled fast path for one recognized label-query shape.
// Plans are immutable after Fuse (SetVectorCache is called once by Prepare
// before the plan is published) apart from two caches — the resolved table
// layouts and the pool of query states — and safe for concurrent Run calls.
// A plan must not be copied.
type FusedPlan struct {
	kind     string
	schema   Schema
	maxParam int

	// tables are the two base tables the plan reads: the query stop's label
	// first, then the in-side label (v2v), the naive table or the condensed
	// table.
	tables [2]tableRef
	// states recycles *queryState between Run calls.
	states sync.Pool

	// vectors records whether the owning handle fronts its label segments
	// with the resident vector cache. It only affects Explain — the runtime
	// dispatch lives inside the storage layer's ScratchTable implementation,
	// which this package reaches through the same interface either way.
	vectors bool

	v2v  *fusedV2V
	knn  *fusedKNNNaive
	cond *fusedCondensed
}

// labelCols are the columns every fused code reads from a label table, the
// single-column primary key first.
var labelCols = []string{"v", "hubs", "tds", "tas"}

// reads records the plan's two tables: the query stop's label table, and the
// second table with the columns read from it, the first pk of which must be
// exactly its primary key (0 leaves the key unchecked).
func (p *FusedPlan) reads(labelTable, second string, pk int, cols ...string) {
	p.tables[0] = tableRef{name: labelTable, cols: labelCols, pk: 1}
	p.tables[1] = tableRef{name: second, cols: cols, pk: pk}
}

// Kind names the recognized shape ("v2v-ea", "knn-naive-ld", "cond-otm-ea",
// ...) for tests and diagnostics.
func (p *FusedPlan) Kind() string { return p.kind }

// SetVectorCache records whether the resident vector cache fronts the
// segments, so Explain renders the Vector* access-path operators. Called once
// at prepare time, before the plan is shared.
func (p *FusedPlan) SetVectorCache(on bool) { p.vectors = on }

// fusedV2V is Code 1: join of one lout and one lin label, MIN/MAX scalar.
type fusedV2V struct {
	op        byte // 'E' (EA), 'L' (LD), 'S' (SD)
	outTable  string
	inTable   string
	outVParam int
	inVParam  int
	tParam    int // departure bound (EA/SD) or arrival bound (LD)
	tEndParam int // SD only: arrival bound
}

// fusedKNNNaive is Code 2: lout label joined with a scan of the naive
// per-(hub, td) table, grouped by target.
type fusedKNNNaive struct {
	ea     bool
	lout   string
	naive  string
	qParam int
	tParam int
	kParam int
}

// fusedCondensed is Code 3 (EA) / Code 4 (LD), both the kNN and the
// one-to-many variant: lout label probing the hour-condensed table by
// (hub, bucket), folding the top-k arm and the expanded arm into one
// per-target accumulator.
type fusedCondensed struct {
	ea        bool
	lout      string
	aux       string
	qParam    int
	tParam    int
	kParam    int // 0 = one-to-many (no LIMIT, no [1:k] slices)
	width     int64
	bucketCol string // dephour (EA) or arrhour (LD)
	topV      string // armA target column (vs)
	topVal    string // armA value column (tas for EA, tds for LD)
	expTd     string
	expV      string
	expTa     string
}

// Fuse compiles sel into a FusedPlan, or returns nil when the statement does
// not match a recognized shape.
func Fuse(sel *sql.Select) *FusedPlan {
	if sel == nil {
		return nil
	}
	if p := matchV2V(sel); p != nil {
		return p
	}
	if p := matchKNNNaive(sel); p != nil {
		return p
	}
	if p := matchCondensed(sel); p != nil {
		return p
	}
	return nil
}

// --- small AST predicates ---------------------------------------------------

func asColRef(e sql.Expr) (*sql.ColumnRef, bool) {
	c, ok := e.(*sql.ColumnRef)
	return c, ok
}

// isBareCol matches an unqualified column reference by name.
func isBareCol(e sql.Expr, name string) bool {
	c, ok := asColRef(e)
	return ok && c.Table == "" && strings.EqualFold(c.Column, name)
}

// isQualCol matches a qualified column reference by qualifier and name.
func isQualCol(e sql.Expr, qual, name string) bool {
	c, ok := asColRef(e)
	return ok && strings.EqualFold(c.Table, qual) && strings.EqualFold(c.Column, name)
}

func paramOf(e sql.Expr) (int, bool) {
	p, ok := e.(*sql.Param)
	if !ok {
		return 0, false
	}
	return p.N, true
}

// unnestArg returns the single argument of a top-level UNNEST call.
func unnestArg(e sql.Expr) (sql.Expr, bool) {
	fc, ok := e.(*sql.FuncCall)
	if !ok || fc.Name != "UNNEST" || fc.Star || len(fc.Args) != 1 {
		return nil, false
	}
	return fc.Args[0], true
}

// unnestBareCol matches UNNEST(col) of an unqualified column, returning the
// column name.
func unnestBareCol(e sql.Expr) (string, bool) {
	arg, ok := unnestArg(e)
	if !ok {
		return "", false
	}
	c, ok := asColRef(arg)
	if !ok || c.Table != "" {
		return "", false
	}
	return c.Column, true
}

// unnestSlicedCol matches UNNEST(col[1:$k]) of an unqualified column,
// returning the column name and the slice parameter.
func unnestSlicedCol(e sql.Expr) (string, int, bool) {
	arg, ok := unnestArg(e)
	if !ok {
		return "", 0, false
	}
	sl, ok := arg.(*sql.ArraySlice)
	if !ok {
		return "", 0, false
	}
	lo, ok := sl.Lo.(*sql.IntLit)
	if !ok || lo.V != 1 {
		return "", 0, false
	}
	k, ok := paramOf(sl.Hi)
	if !ok {
		return "", 0, false
	}
	c, ok := asColRef(sl.A)
	if !ok || c.Table != "" {
		return "", 0, false
	}
	return c.Column, k, true
}

// normCmp rewrites > and >= comparisons as < and <= with swapped operands,
// so classification handles one orientation per operator.
func normCmp(b *sql.BinaryOp) (op string, l, r sql.Expr) {
	switch b.Op {
	case ">":
		return "<", b.R, b.L
	case ">=":
		return "<=", b.R, b.L
	default:
		return b.Op, b.L, b.R
	}
}

// plainCore reports whether sel is a bare SELECT core: no WITH, no UNION
// arms, no ORDER BY, no LIMIT.
func plainCore(sel *sql.Select) bool {
	return sel != nil && sel.Core != nil && len(sel.With) == 0 &&
		len(sel.Arms) == 0 && len(sel.OrderBy) == 0 && sel.Limit == nil
}

// exprEqual reports structural equality of two expressions (used to verify
// that an ORDER BY key recomputes the select list's aggregate).
func exprEqual(a, b sql.Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	switch x := a.(type) {
	case *sql.ColumnRef:
		y, ok := b.(*sql.ColumnRef)
		return ok && strings.EqualFold(x.Table, y.Table) && strings.EqualFold(x.Column, y.Column)
	case *sql.IntLit:
		y, ok := b.(*sql.IntLit)
		return ok && x.V == y.V
	case *sql.FloatLit:
		y, ok := b.(*sql.FloatLit)
		return ok && x.V == y.V
	case *sql.StringLit:
		y, ok := b.(*sql.StringLit)
		return ok && x.V == y.V
	case *sql.NullLit:
		_, ok := b.(*sql.NullLit)
		return ok
	case *sql.Param:
		y, ok := b.(*sql.Param)
		return ok && x.N == y.N
	case *sql.BinaryOp:
		y, ok := b.(*sql.BinaryOp)
		return ok && x.Op == y.Op && exprEqual(x.L, y.L) && exprEqual(x.R, y.R)
	case *sql.UnaryOp:
		y, ok := b.(*sql.UnaryOp)
		return ok && x.Op == y.Op && exprEqual(x.E, y.E)
	case *sql.FuncCall:
		y, ok := b.(*sql.FuncCall)
		if !ok || !strings.EqualFold(x.Name, y.Name) || x.Star != y.Star || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !exprEqual(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	case *sql.ArrayIndex:
		y, ok := b.(*sql.ArrayIndex)
		return ok && exprEqual(x.A, y.A) && exprEqual(x.I, y.I)
	case *sql.ArraySlice:
		y, ok := b.(*sql.ArraySlice)
		return ok && exprEqual(x.A, y.A) && exprEqual(x.Lo, y.Lo) && exprEqual(x.Hi, y.Hi)
	default:
		return false
	}
}

// baseTablesDistinctFromCTEs guards against base-table references that the
// general executor would resolve as CTEs of the statement (CTE bindings
// shadow catalog tables): fusing such a statement would read the wrong
// relation.
func baseTablesDistinctFromCTEs(sel *sql.Select, tables ...string) bool {
	for _, cte := range sel.With {
		for _, t := range tables {
			if strings.EqualFold(cte.Name, t) {
				return false
			}
		}
	}
	return true
}

func maxInt(xs ...int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// --- shared fragments: label scans and the n1 CTE ---------------------------

// matchLabelScan matches the unnested label projection
//
//	SELECT [v [AS v],] UNNEST(hubs) AS hub, UNNEST(tds) AS td,
//	       UNNEST(tas) AS ta FROM <table> WHERE v=$n
//
// returning the label table and the stop parameter. withV selects the
// four-item variant (Codes 2-4) over the three-item variant (Code 1).
func matchLabelScan(sel *sql.Select, withV bool) (table string, vParam int, ok bool) {
	if !plainCore(sel) {
		return "", 0, false
	}
	c := sel.Core
	if len(c.From) != 1 || c.From[0].Subquery != nil || c.From[0].Alias != "" ||
		c.From[0].Table == "" || len(c.GroupBy) != 0 || c.Having != nil {
		return "", 0, false
	}
	items := c.Items
	if withV {
		if len(items) != 4 {
			return "", 0, false
		}
		it := items[0]
		if it.Star || !isBareCol(it.Expr, "v") ||
			(it.Alias != "" && !strings.EqualFold(it.Alias, "v")) {
			return "", 0, false
		}
		items = items[1:]
	} else if len(items) != 3 {
		return "", 0, false
	}
	want := [3][2]string{{"hubs", "hub"}, {"tds", "td"}, {"tas", "ta"}}
	for i, it := range items {
		if it.Star {
			return "", 0, false
		}
		col, ok := unnestBareCol(it.Expr)
		if !ok || !strings.EqualFold(col, want[i][0]) || !strings.EqualFold(it.Alias, want[i][1]) {
			return "", 0, false
		}
	}
	b, ok2 := c.Where.(*sql.BinaryOp)
	if !ok2 || b.Op != "=" {
		return "", 0, false
	}
	switch {
	case isBareCol(b.L, "v"):
		vParam, ok = paramOf(b.R)
	case isBareCol(b.R, "v"):
		vParam, ok = paramOf(b.L)
	}
	if !ok {
		return "", 0, false
	}
	return c.From[0].Table, vParam, true
}

// matchN1 matches the n1 CTE body of Codes 2-4:
//
//	SELECT v, hub, td, ta FROM (<label scan with v>) n1a [WHERE td >= $t]
//
// tdParam is 0 when the departure filter is absent (the LD variants).
func matchN1(sel *sql.Select) (lout string, vParam, tdParam int, ok bool) {
	if !plainCore(sel) {
		return "", 0, 0, false
	}
	c := sel.Core
	if len(c.Items) != 4 || len(c.From) != 1 || c.From[0].Subquery == nil ||
		c.From[0].Alias == "" || len(c.GroupBy) != 0 || c.Having != nil {
		return "", 0, 0, false
	}
	for i, name := range []string{"v", "hub", "td", "ta"} {
		it := c.Items[i]
		if it.Star || it.Alias != "" || !isBareCol(it.Expr, name) {
			return "", 0, 0, false
		}
	}
	lout, vParam, ok = matchLabelScan(c.From[0].Subquery, true)
	if !ok {
		return "", 0, 0, false
	}
	if c.Where != nil {
		b, okb := c.Where.(*sql.BinaryOp)
		if !okb {
			return "", 0, 0, false
		}
		op, l, r := normCmp(b)
		if op != "<=" {
			return "", 0, 0, false
		}
		// td >= $t normalizes to $t <= td.
		tdParam, ok = paramOf(l)
		if !ok || !isBareCol(r, "td") {
			return "", 0, 0, false
		}
	}
	return lout, vParam, tdParam, true
}

// --- Code 1: vertex-to-vertex -----------------------------------------------

// matchV2V recognizes the three Code 1 variants:
//
//	WITH outp AS (<label scan>), inp AS (<label scan>)
//	SELECT MIN(inp.ta) | MAX(outp.td) | MIN(inp.ta-outp.td)
//	FROM outp, inp
//	WHERE outp.hub=inp.hub AND outp.ta<=inp.td
//	  [AND outp.td>=$t] [AND inp.ta<=$tEnd]
func matchV2V(sel *sql.Select) *FusedPlan {
	if len(sel.With) != 2 || sel.Core == nil || len(sel.Arms) != 0 ||
		len(sel.OrderBy) != 0 || sel.Limit != nil {
		return nil
	}
	type cteInfo struct {
		name   string
		table  string
		vParam int
	}
	var ctes [2]cteInfo
	for i, cte := range sel.With {
		tbl, p, ok := matchLabelScan(cte.Query, false)
		if !ok || cte.Name == "" {
			return nil
		}
		ctes[i] = cteInfo{cte.Name, tbl, p}
	}
	if strings.EqualFold(ctes[0].name, ctes[1].name) {
		return nil
	}
	if !baseTablesDistinctFromCTEs(sel, ctes[0].table, ctes[1].table) {
		return nil
	}
	c := sel.Core
	if len(c.Items) != 1 || c.Items[0].Star || c.Items[0].Alias != "" ||
		len(c.From) != 2 || len(c.GroupBy) != 0 || c.Having != nil {
		return nil
	}
	for i, fi := range c.From {
		if fi.Subquery != nil || fi.Alias != "" || !strings.EqualFold(fi.Table, ctes[i].name) {
			return nil
		}
	}
	qualIdx := func(q string) int {
		switch {
		case strings.EqualFold(q, ctes[0].name):
			return 0
		case strings.EqualFold(q, ctes[1].name):
			return 1
		default:
			return -1
		}
	}

	conj := splitConjuncts(c.Where)
	if len(conj) < 3 || len(conj) > 4 {
		return nil
	}
	hubSeen := false
	outI, inI := -1, -1
	depParam, arrParam := 0, 0
	depQual, arrQual := "", ""
	for _, e := range conj {
		b, ok := e.(*sql.BinaryOp)
		if !ok {
			return nil
		}
		op, l, r := normCmp(b)
		switch op {
		case "=":
			lc, lok := asColRef(l)
			rc, rok := asColRef(r)
			if !lok || !rok || hubSeen ||
				!strings.EqualFold(lc.Column, "hub") || !strings.EqualFold(rc.Column, "hub") {
				return nil
			}
			li, ri := qualIdx(lc.Table), qualIdx(rc.Table)
			if li < 0 || ri < 0 || li == ri {
				return nil
			}
			hubSeen = true
		case "<=":
			if lc, lok := asColRef(l); lok {
				if rc, rok := asColRef(r); rok {
					// Reachability: out.ta <= in.td.
					if outI >= 0 || !strings.EqualFold(lc.Column, "ta") || !strings.EqualFold(rc.Column, "td") {
						return nil
					}
					oi, ii := qualIdx(lc.Table), qualIdx(rc.Table)
					if oi < 0 || ii < 0 || oi == ii {
						return nil
					}
					outI, inI = oi, ii
				} else if p, pok := paramOf(r); pok {
					// Arrival bound: in.ta <= $p.
					if arrParam != 0 || !strings.EqualFold(lc.Column, "ta") {
						return nil
					}
					arrParam, arrQual = p, lc.Table
				} else {
					return nil
				}
			} else if p, pok := paramOf(l); pok {
				// Departure bound: out.td >= $p, normalized to $p <= out.td.
				rc, rok := asColRef(r)
				if !rok || depParam != 0 || !strings.EqualFold(rc.Column, "td") {
					return nil
				}
				depParam, depQual = p, rc.Table
			} else {
				return nil
			}
		default:
			return nil
		}
	}
	if !hubSeen || outI < 0 {
		return nil
	}
	if depParam > 0 && qualIdx(depQual) != outI {
		return nil
	}
	if arrParam > 0 && qualIdx(arrQual) != inI {
		return nil
	}

	fc, ok := c.Items[0].Expr.(*sql.FuncCall)
	if !ok || fc.Star || len(fc.Args) != 1 {
		return nil
	}
	outName, inName := ctes[outI].name, ctes[inI].name
	var op byte
	switch {
	case fc.Name == "MIN" && isQualCol(fc.Args[0], inName, "ta") &&
		depParam > 0 && arrParam == 0:
		op = 'E'
	case fc.Name == "MAX" && isQualCol(fc.Args[0], outName, "td") &&
		arrParam > 0 && depParam == 0:
		op = 'L'
	case fc.Name == "MIN" && depParam > 0 && arrParam > 0:
		sub, okb := fc.Args[0].(*sql.BinaryOp)
		if !okb || sub.Op != "-" ||
			!isQualCol(sub.L, inName, "ta") || !isQualCol(sub.R, outName, "td") {
			return nil
		}
		op = 'S'
	default:
		return nil
	}

	f := &fusedV2V{
		op:        op,
		outTable:  ctes[outI].table,
		inTable:   ctes[inI].table,
		outVParam: ctes[outI].vParam,
		inVParam:  ctes[inI].vParam,
	}
	kind := "v2v-ea"
	switch op {
	case 'E':
		f.tParam = depParam
	case 'L':
		f.tParam, kind = arrParam, "v2v-ld"
	case 'S':
		f.tParam, f.tEndParam, kind = depParam, arrParam, "v2v-sd"
	}
	p := &FusedPlan{
		kind:     kind,
		schema:   itemSchema(c.Items),
		maxParam: maxInt(f.outVParam, f.inVParam, f.tParam, f.tEndParam),
		v2v:      f,
	}
	p.reads(f.outTable, f.inTable, 1, labelCols...)
	return p
}

// --- Code 2: naive kNN -------------------------------------------------------

// matchKNNNaive recognizes the naive kNN query (EA and LD):
//
//	WITH n1 AS (<n1 body>)
//	SELECT v2, MIN(n2.ta) | MAX(n1.td)
//	FROM n1, (SELECT hub, td, UNNEST(vs[1:$k]) AS v2, UNNEST(tas[1:$k]) AS ta
//	          FROM <naive>) n2
//	WHERE n1.hub=n2.hub AND n2.td>=n1.ta [AND n2.ta<=$t]
//	GROUP BY v2 ORDER BY <agg> [DESC], v2 LIMIT $k
func matchKNNNaive(sel *sql.Select) *FusedPlan {
	if len(sel.With) != 1 || sel.Core == nil || len(sel.Arms) != 0 {
		return nil
	}
	n1Name := sel.With[0].Name
	if n1Name == "" {
		return nil
	}
	lout, qParam, tdParam, ok := matchN1(sel.With[0].Query)
	if !ok {
		return nil
	}

	c := sel.Core
	if len(c.Items) != 2 || len(c.From) != 2 || c.Having != nil {
		return nil
	}
	if c.Items[0].Star || c.Items[0].Alias != "" || !isBareCol(c.Items[0].Expr, "v2") {
		return nil
	}
	if c.From[0].Subquery != nil || c.From[0].Alias != "" || !strings.EqualFold(c.From[0].Table, n1Name) {
		return nil
	}
	n2Alias := c.From[1].Alias
	n2 := c.From[1].Subquery
	if n2 == nil || n2Alias == "" || strings.EqualFold(n2Alias, n1Name) || !plainCore(n2) {
		return nil
	}
	nc := n2.Core
	if len(nc.Items) != 4 || len(nc.From) != 1 || nc.From[0].Subquery != nil ||
		nc.From[0].Alias != "" || nc.Where != nil || len(nc.GroupBy) != 0 || nc.Having != nil {
		return nil
	}
	naive := nc.From[0].Table
	if naive == "" || !baseTablesDistinctFromCTEs(sel, lout, naive) {
		return nil
	}
	if nc.Items[0].Star || nc.Items[0].Alias != "" || !isBareCol(nc.Items[0].Expr, "hub") ||
		nc.Items[1].Star || nc.Items[1].Alias != "" || !isBareCol(nc.Items[1].Expr, "td") {
		return nil
	}
	vsCol, kParam1, ok := unnestSlicedCol(nc.Items[2].Expr)
	if !ok || !strings.EqualFold(vsCol, "vs") || !strings.EqualFold(nc.Items[2].Alias, "v2") {
		return nil
	}
	tasCol, kParam2, ok := unnestSlicedCol(nc.Items[3].Expr)
	if !ok || !strings.EqualFold(tasCol, "tas") || !strings.EqualFold(nc.Items[3].Alias, "ta") ||
		kParam2 != kParam1 {
		return nil
	}

	// Join predicates: n1.hub=n2.hub, n2.td>=n1.ta, optionally n2.ta<=$t.
	conj := splitConjuncts(c.Where)
	hubSeen, reachSeen := false, false
	arrParam := 0
	for _, e := range conj {
		b, okb := e.(*sql.BinaryOp)
		if !okb {
			return nil
		}
		op, l, r := normCmp(b)
		switch op {
		case "=":
			ok1 := isQualCol(l, n1Name, "hub") && isQualCol(r, n2Alias, "hub")
			ok2 := isQualCol(l, n2Alias, "hub") && isQualCol(r, n1Name, "hub")
			if hubSeen || (!ok1 && !ok2) {
				return nil
			}
			hubSeen = true
		case "<=":
			if isQualCol(l, n1Name, "ta") && isQualCol(r, n2Alias, "td") {
				if reachSeen {
					return nil
				}
				reachSeen = true
			} else if isQualCol(l, n2Alias, "ta") {
				p, pok := paramOf(r)
				if !pok || arrParam != 0 {
					return nil
				}
				arrParam = p
			} else {
				return nil
			}
		default:
			return nil
		}
	}
	if !hubSeen || !reachSeen {
		return nil
	}

	// Variant: EA filters n1 by departure and aggregates MIN(n2.ta); LD
	// leaves n1 unfiltered, bounds n2.ta by $t and aggregates MAX(n1.td).
	agg, ok := c.Items[1].Expr.(*sql.FuncCall)
	if !ok || c.Items[1].Star || c.Items[1].Alias != "" || agg.Star || len(agg.Args) != 1 {
		return nil
	}
	var ea bool
	var tParam int
	switch {
	case agg.Name == "MIN" && isQualCol(agg.Args[0], n2Alias, "ta") && tdParam > 0 && arrParam == 0:
		ea, tParam = true, tdParam
	case agg.Name == "MAX" && isQualCol(agg.Args[0], n1Name, "td") && tdParam == 0 && arrParam > 0:
		ea, tParam = false, arrParam
	default:
		return nil
	}

	// GROUP BY v2; ORDER BY <agg> [DESC], v2; LIMIT $k.
	if len(c.GroupBy) != 1 || !isBareCol(c.GroupBy[0], "v2") {
		return nil
	}
	if len(sel.OrderBy) != 2 ||
		!exprEqual(sel.OrderBy[0].Expr, c.Items[1].Expr) || sel.OrderBy[0].Desc != !ea ||
		!isBareCol(sel.OrderBy[1].Expr, "v2") || sel.OrderBy[1].Desc {
		return nil
	}
	limParam, ok := paramOf(sel.Limit)
	if !ok || limParam != kParam1 {
		return nil
	}

	f := &fusedKNNNaive{ea: ea, lout: lout, naive: naive,
		qParam: qParam, tParam: tParam, kParam: kParam1}
	kind := "knn-naive-ea"
	if !ea {
		kind = "knn-naive-ld"
	}
	p := &FusedPlan{
		kind:     kind,
		schema:   itemSchema(c.Items),
		maxParam: maxInt(qParam, tParam, kParam1),
		knn:      f,
	}
	p.reads(lout, naive, 0, "hub", "td", "vs", "tas")
	return p
}

// --- Codes 3 and 4: condensed kNN and one-to-many ---------------------------

// matchCondensed recognizes the optimized EA/LD kNN and one-to-many queries
// built on the hour-condensed tables: n1 (the unnested lout label), n1b (the
// (hub, bucket) probe of the condensed table), and a UNION of the top-k arm
// and the expanded arm, re-grouped by target.
func matchCondensed(sel *sql.Select) *FusedPlan {
	if len(sel.With) != 2 || sel.Core == nil || len(sel.Arms) != 0 {
		return nil
	}
	n1Name, n1bName := sel.With[0].Name, sel.With[1].Name
	if n1Name == "" || n1bName == "" || strings.EqualFold(n1Name, n1bName) {
		return nil
	}
	lout, qParam, tdParam, ok := matchN1(sel.With[0].Query)
	if !ok {
		return nil
	}

	// n1b: SELECT n1bb.*, n1.ta AS n1_ta, n1.td AS n1_td
	//      FROM <aux> n1bb, n1
	//      WHERE n1bb.hub=n1.hub AND n1bb.<bucket>=FLOOR(<src>/<width>)
	nb := sel.With[1].Query
	if !plainCore(nb) {
		return nil
	}
	bc := nb.Core
	if len(bc.Items) != 3 || len(bc.From) != 2 || len(bc.GroupBy) != 0 || bc.Having != nil {
		return nil
	}
	aux, auxAlias := bc.From[0].Table, bc.From[0].Alias
	if bc.From[0].Subquery != nil || aux == "" || auxAlias == "" {
		return nil
	}
	if bc.From[1].Subquery != nil || bc.From[1].Alias != "" || !strings.EqualFold(bc.From[1].Table, n1Name) {
		return nil
	}
	if strings.EqualFold(auxAlias, n1Name) || !baseTablesDistinctFromCTEs(sel, lout, aux) {
		return nil
	}
	if !bc.Items[0].Star || !strings.EqualFold(bc.Items[0].Table, auxAlias) {
		return nil
	}
	if bc.Items[1].Star || !strings.EqualFold(bc.Items[1].Alias, "n1_ta") ||
		!isQualCol(bc.Items[1].Expr, n1Name, "ta") {
		return nil
	}
	if bc.Items[2].Star || !strings.EqualFold(bc.Items[2].Alias, "n1_td") ||
		!isQualCol(bc.Items[2].Expr, n1Name, "td") {
		return nil
	}
	bconj := splitConjuncts(bc.Where)
	if len(bconj) != 2 {
		return nil
	}
	hubSeen := false
	bucketCol := ""
	var width int64
	bucketByTa := false // EA buckets by FLOOR(n1.ta/width); LD by FLOOR($t/width)
	bucketParam := 0
	for _, e := range bconj {
		b, okb := e.(*sql.BinaryOp)
		if !okb || b.Op != "=" {
			return nil
		}
		// Orient so the aux-side column reference is on the left.
		l, r := b.L, b.R
		if lc, lok := asColRef(l); !lok || !strings.EqualFold(lc.Table, auxAlias) {
			l, r = r, l
		}
		lc, lok := asColRef(l)
		if !lok || !strings.EqualFold(lc.Table, auxAlias) {
			return nil
		}
		if strings.EqualFold(lc.Column, "hub") {
			if hubSeen || !isQualCol(r, n1Name, "hub") {
				return nil
			}
			hubSeen = true
			continue
		}
		// Bucket equality: <aux>.<bucket> = FLOOR(src / width).
		if bucketCol != "" {
			return nil
		}
		fc, fok := r.(*sql.FuncCall)
		if !fok || fc.Name != "FLOOR" || fc.Star || len(fc.Args) != 1 {
			return nil
		}
		div, dok := fc.Args[0].(*sql.BinaryOp)
		if !dok || div.Op != "/" {
			return nil
		}
		// The width may be an integer literal or an integral float literal:
		// the SQL uses FLOOR(x/3600.0) so that division is exact (float)
		// rather than truncating toward zero on negative timestamps. The
		// fused runtime reproduces FLOOR of the float quotient with integer
		// floor division.
		var widthV int64
		switch w := div.R.(type) {
		case *sql.IntLit:
			widthV = w.V
		case *sql.FloatLit:
			if w.V != math.Trunc(w.V) {
				return nil
			}
			widthV = int64(w.V)
		default:
			return nil
		}
		if widthV <= 0 {
			return nil
		}
		switch {
		case isQualCol(div.L, n1Name, "ta"):
			bucketByTa = true
		default:
			p, pok := paramOf(div.L)
			if !pok {
				return nil
			}
			bucketParam = p
		}
		bucketCol, width = lc.Column, widthV
	}
	if !hubSeen || bucketCol == "" {
		return nil
	}

	// Outer: SELECT v2, MIN(ta)|MAX(td) FROM ((armA) UNION (armB)) S
	//        GROUP BY v2 ORDER BY <agg> [DESC], v2 [LIMIT $k]
	c := sel.Core
	if len(c.Items) != 2 || len(c.From) != 1 || c.From[0].Subquery == nil ||
		c.From[0].Alias == "" || c.Where != nil || c.Having != nil {
		return nil
	}
	if c.Items[0].Star || c.Items[0].Alias != "" || !isBareCol(c.Items[0].Expr, "v2") {
		return nil
	}
	agg, ok := c.Items[1].Expr.(*sql.FuncCall)
	if !ok || c.Items[1].Star || c.Items[1].Alias != "" || agg.Star || len(agg.Args) != 1 {
		return nil
	}
	var ea bool
	switch {
	case agg.Name == "MIN" && isBareCol(agg.Args[0], "ta"):
		ea = true
	case agg.Name == "MAX" && isBareCol(agg.Args[0], "td"):
		ea = false
	default:
		return nil
	}
	// The n1 filter and the bucket source must match the variant: EA filters
	// departures and buckets by the label's arrival; LD buckets by $t.
	if ea && (tdParam == 0 || !bucketByTa) {
		return nil
	}
	if !ea && (tdParam != 0 || bucketByTa) {
		return nil
	}
	if len(c.GroupBy) != 1 || !isBareCol(c.GroupBy[0], "v2") {
		return nil
	}
	if len(sel.OrderBy) != 2 ||
		!exprEqual(sel.OrderBy[0].Expr, c.Items[1].Expr) || sel.OrderBy[0].Desc != !ea ||
		!isBareCol(sel.OrderBy[1].Expr, "v2") || sel.OrderBy[1].Desc {
		return nil
	}
	kParam := 0
	if sel.Limit != nil {
		kParam, ok = paramOf(sel.Limit)
		if !ok || kParam == 0 {
			return nil
		}
	}

	union := c.From[0].Subquery
	if union.Core != nil || len(union.Arms) != 2 || len(union.With) != 0 ||
		len(union.OrderBy) != 0 || union.Limit != nil ||
		len(union.All) != 1 || union.All[0] {
		return nil
	}

	f := &fusedCondensed{ea: ea, lout: lout, aux: aux, qParam: qParam,
		kParam: kParam, width: width, bucketCol: bucketCol}
	if ea {
		f.tParam = tdParam
	} else {
		f.tParam = bucketParam
	}
	if !matchCondensedArmA(union.Arms[0], n1bName, ea, kParam, f) {
		return nil
	}
	if !matchCondensedArmB(union.Arms[1], n1bName, ea, kParam, f.tParam, f) {
		return nil
	}

	kind := "cond-"
	if kParam == 0 {
		kind += "otm-"
	} else {
		kind += "knn-"
	}
	if ea {
		kind += "ea"
	} else {
		kind += "ld"
	}
	p := &FusedPlan{
		kind:     kind,
		schema:   itemSchema(c.Items),
		maxParam: maxInt(qParam, f.tParam, kParam),
		cond:     f,
	}
	p.reads(lout, aux, 2, "hub", f.bucketCol, f.topV, f.topVal, f.expTd, f.expV, f.expTa)
	return p
}

// matchCondensedArmA matches the top-k arm. EA:
//
//	SELECT v2, MIN(n3.ta) AS ta
//	FROM (SELECT UNNEST(tas[1:$k]) AS ta, UNNEST(vs[1:$k]) AS v2 FROM n1b) n3
//	GROUP BY v2 ORDER BY MIN(n3.ta), v2 LIMIT $k
//
// LD:
//
//	SELECT v2, MAX(n3.n1_td) AS td
//	FROM (SELECT n1_td, n1_ta, UNNEST(tds[1:$k]) AS td, UNNEST(vs[1:$k]) AS v2
//	      FROM n1b) n3
//	WHERE n3.td>=n1_ta
//	GROUP BY v2 ORDER BY MAX(n3.n1_td) DESC, v2 LIMIT $k
//
// The one-to-many variant (k == 0) drops the slices and the LIMIT. The arm's
// inner grouping, ordering and LIMIT never change the statement's final
// result (the outer re-group folds the same per-target optimum, and the arm
// keeps the top k of the same (value, v2) order the outer LIMIT uses), so
// the fused evaluator only needs the arm's source arrays; the match still
// verifies the full shape so deviating queries fall back.
func matchCondensedArmA(arm *sql.Select, n1bName string, ea bool, kParam int, f *fusedCondensed) bool {
	if arm == nil || arm.Core == nil || len(arm.With) != 0 || len(arm.Arms) != 0 {
		return false
	}
	a := arm.Core
	if len(a.Items) != 2 || len(a.From) != 1 || a.From[0].Subquery == nil ||
		a.From[0].Alias == "" || a.Having != nil {
		return false
	}
	n3 := a.From[0].Alias
	if a.Items[0].Star || a.Items[0].Alias != "" || !isBareCol(a.Items[0].Expr, "v2") {
		return false
	}
	agg, ok := a.Items[1].Expr.(*sql.FuncCall)
	if !ok || a.Items[1].Star || agg.Star || len(agg.Args) != 1 {
		return false
	}
	valAlias := "ta"
	if !ea {
		valAlias = "td"
	}
	if !strings.EqualFold(a.Items[1].Alias, valAlias) {
		return false
	}

	inner := a.From[0].Subquery
	if !plainCore(inner) {
		return false
	}
	ic := inner.Core
	if len(ic.From) != 1 || ic.From[0].Subquery != nil || ic.From[0].Alias != "" ||
		!strings.EqualFold(ic.From[0].Table, n1bName) ||
		ic.Where != nil || len(ic.GroupBy) != 0 || ic.Having != nil {
		return false
	}

	matchArrayItem := func(it sql.SelectItem, alias string) (string, bool) {
		if it.Star || !strings.EqualFold(it.Alias, alias) {
			return "", false
		}
		if kParam == 0 {
			col, ok := unnestBareCol(it.Expr)
			return col, ok
		}
		col, k, ok := unnestSlicedCol(it.Expr)
		return col, ok && k == kParam
	}

	if ea {
		// Items: UNNEST(tas…) AS ta, UNNEST(vs…) AS v2; no WHERE;
		// aggregate MIN(n3.ta).
		if len(ic.Items) != 2 || a.Where != nil {
			return false
		}
		valCol, ok := matchArrayItem(ic.Items[0], "ta")
		if !ok {
			return false
		}
		vCol, ok := matchArrayItem(ic.Items[1], "v2")
		if !ok {
			return false
		}
		if agg.Name != "MIN" || !isQualCol(agg.Args[0], n3, "ta") {
			return false
		}
		f.topVal, f.topV = valCol, vCol
	} else {
		// Items: n1_td, n1_ta, UNNEST(tds…) AS td, UNNEST(vs…) AS v2;
		// WHERE n3.td>=n1_ta; aggregate MAX(n3.n1_td).
		if len(ic.Items) != 4 {
			return false
		}
		if ic.Items[0].Star || ic.Items[0].Alias != "" || !isBareCol(ic.Items[0].Expr, "n1_td") ||
			ic.Items[1].Star || ic.Items[1].Alias != "" || !isBareCol(ic.Items[1].Expr, "n1_ta") {
			return false
		}
		valCol, ok := matchArrayItem(ic.Items[2], "td")
		if !ok {
			return false
		}
		vCol, ok := matchArrayItem(ic.Items[3], "v2")
		if !ok {
			return false
		}
		b, okb := a.Where.(*sql.BinaryOp)
		if !okb {
			return false
		}
		op, l, r := normCmp(b)
		// n3.td >= n1_ta normalizes to n1_ta <= n3.td.
		if op != "<=" || !isBareCol(l, "n1_ta") || !isQualCol(r, n3, "td") {
			return false
		}
		if agg.Name != "MAX" || !isQualCol(agg.Args[0], n3, "n1_td") {
			return false
		}
		f.topVal, f.topV = valCol, vCol
	}

	if len(a.GroupBy) != 1 || !isBareCol(a.GroupBy[0], "v2") {
		return false
	}
	if len(arm.OrderBy) != 2 ||
		!exprEqual(arm.OrderBy[0].Expr, agg) || arm.OrderBy[0].Desc != !ea ||
		!isBareCol(arm.OrderBy[1].Expr, "v2") || arm.OrderBy[1].Desc {
		return false
	}
	if kParam == 0 {
		return arm.Limit == nil
	}
	p, ok := paramOf(arm.Limit)
	return ok && p == kParam
}

// matchCondensedArmB matches the expanded arm. EA:
//
//	SELECT n2.v2, MIN(n2.ta) AS ta
//	FROM (SELECT n1_ta, UNNEST(tds_exp) AS td, UNNEST(vs_exp) AS v2,
//	             UNNEST(tas_exp) AS ta FROM n1b) n2
//	WHERE n1_ta <= n2.td
//	GROUP BY n2.v2 ORDER BY MIN(n2.ta), v2 LIMIT $k
//
// LD:
//
//	SELECT n2.v2, MAX(n2.n1_td) AS td
//	FROM (SELECT n1_td, n1_ta, UNNEST(tds_exp) AS td, UNNEST(vs_exp) AS v2,
//	             UNNEST(tas_exp) AS ta FROM n1b) n2
//	WHERE n2.td>=n1_ta AND n2.ta<=$t
//	GROUP BY n2.v2 ORDER BY MAX(n2.n1_td) DESC, v2 LIMIT $k
func matchCondensedArmB(arm *sql.Select, n1bName string, ea bool, kParam, tParam int, f *fusedCondensed) bool {
	if arm == nil || arm.Core == nil || len(arm.With) != 0 || len(arm.Arms) != 0 {
		return false
	}
	a := arm.Core
	if len(a.Items) != 2 || len(a.From) != 1 || a.From[0].Subquery == nil ||
		a.From[0].Alias == "" || a.Having != nil {
		return false
	}
	n2 := a.From[0].Alias
	if a.Items[0].Star || a.Items[0].Alias != "" || !isQualCol(a.Items[0].Expr, n2, "v2") {
		return false
	}
	agg, ok := a.Items[1].Expr.(*sql.FuncCall)
	if !ok || a.Items[1].Star || agg.Star || len(agg.Args) != 1 {
		return false
	}

	inner := a.From[0].Subquery
	if !plainCore(inner) {
		return false
	}
	ic := inner.Core
	if len(ic.From) != 1 || ic.From[0].Subquery != nil || ic.From[0].Alias != "" ||
		!strings.EqualFold(ic.From[0].Table, n1bName) ||
		ic.Where != nil || len(ic.GroupBy) != 0 || ic.Having != nil {
		return false
	}
	unnested := func(it sql.SelectItem, alias string) (string, bool) {
		if it.Star || !strings.EqualFold(it.Alias, alias) {
			return "", false
		}
		return unnestBareCol(it.Expr)
	}
	var expTd, expV, expTa string
	scalarItems := 1 // EA carries n1_ta; LD carries n1_td, n1_ta
	if !ea {
		scalarItems = 2
	}
	if len(ic.Items) != scalarItems+3 {
		return false
	}
	if ea {
		if ic.Items[0].Star || ic.Items[0].Alias != "" || !isBareCol(ic.Items[0].Expr, "n1_ta") {
			return false
		}
	} else {
		if ic.Items[0].Star || ic.Items[0].Alias != "" || !isBareCol(ic.Items[0].Expr, "n1_td") ||
			ic.Items[1].Star || ic.Items[1].Alias != "" || !isBareCol(ic.Items[1].Expr, "n1_ta") {
			return false
		}
	}
	expTd, ok = unnested(ic.Items[scalarItems], "td")
	if !ok {
		return false
	}
	expV, ok = unnested(ic.Items[scalarItems+1], "v2")
	if !ok {
		return false
	}
	expTa, ok = unnested(ic.Items[scalarItems+2], "ta")
	if !ok {
		return false
	}

	conj := splitConjuncts(a.Where)
	if ea {
		// WHERE n1_ta <= n2.td; aggregate MIN(n2.ta).
		if len(conj) != 1 {
			return false
		}
		b, okb := conj[0].(*sql.BinaryOp)
		if !okb {
			return false
		}
		op, l, r := normCmp(b)
		if op != "<=" || !isBareCol(l, "n1_ta") || !isQualCol(r, n2, "td") {
			return false
		}
		if agg.Name != "MIN" || !isQualCol(agg.Args[0], n2, "ta") {
			return false
		}
	} else {
		// WHERE n2.td>=n1_ta AND n2.ta<=$t; aggregate MAX(n2.n1_td).
		if len(conj) != 2 {
			return false
		}
		reachSeen, boundSeen := false, false
		for _, e := range conj {
			b, okb := e.(*sql.BinaryOp)
			if !okb {
				return false
			}
			op, l, r := normCmp(b)
			if op != "<=" {
				return false
			}
			switch {
			case isBareCol(l, "n1_ta") && isQualCol(r, n2, "td") && !reachSeen:
				reachSeen = true
			case isQualCol(l, n2, "ta") && !boundSeen:
				p, pok := paramOf(r)
				if !pok || p != tParam {
					return false
				}
				boundSeen = true
			default:
				return false
			}
		}
		if !reachSeen || !boundSeen {
			return false
		}
		if agg.Name != "MAX" || !isQualCol(agg.Args[0], n2, "n1_td") {
			return false
		}
	}

	if len(a.GroupBy) != 1 || !isQualCol(a.GroupBy[0], n2, "v2") {
		return false
	}
	if len(arm.OrderBy) != 2 ||
		!exprEqual(arm.OrderBy[0].Expr, agg) || arm.OrderBy[0].Desc != !ea ||
		!isBareCol(arm.OrderBy[1].Expr, "v2") || arm.OrderBy[1].Desc {
		return false
	}
	if kParam == 0 {
		if arm.Limit != nil {
			return false
		}
	} else {
		p, okp := paramOf(arm.Limit)
		if !okp || p != kParam {
			return false
		}
	}
	f.expTd, f.expV, f.expTa = expTd, expV, expTa
	return true
}
