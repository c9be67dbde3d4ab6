package exec

// fuse.go is the recognizer of the fused execution path. The workload is the
// ten statements of codes.go; a statement fuses when it is one of them — the
// same syntax tree, identifiers compared case-insensitively, with a table
// name in each table hole and a positive integral width in the bucket hole —
// and compiles into a FusedPlan bound to the statement's two tables, which
// fused_exec.go evaluates directly over the typed column vectors, with
// no per-element boxing and no intermediate Relation materialization. Any
// other statement, including another spelling of the same query, runs on the
// general executor (Run).
//
// Fusing binds the plan: it looks its two tables up once and checks that each
// has the columns and key the kernel reads and declares what the kernel
// trusts (a label's run order, a target-id bound, an EA condensed table's
// floor, an EA one-to-many table's target count). A table that does not is
// Fuse's error, naming it. A bound plan answers or returns an error that says
// what is wrong: a parameter that is not a BIGINT, a negative LIMIT, a row
// that breaks what its table declares. Each is a caller bug or a violated
// storage invariant; there is no fallback.

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"ptldb/internal/obs"
	"ptldb/internal/sqldb/sql"
)

// FusedPlan is a compiled fast path for one recognized statement, bound to
// its tables. Plans are immutable after Fuse apart from the pool of query
// states, and safe for concurrent Run calls. A plan must not be copied.
type FusedPlan struct {
	code   obs.Code
	schema Schema
	// width is the statement's bucket width (the condensed codes only).
	width int64

	// tables are the two base tables the plan reads: the query stop's label
	// first, then the in-side label (v2v), the naive table or the condensed
	// table.
	tables [2]tableRef
	// metrics are the catalog's executor counters, fed once per query.
	metrics *obs.ExecMetrics
	// states recycles *queryState between Run calls.
	states sync.Pool

	// Exactly one is set; the values are the code's, shared by every plan of
	// its kind.
	v2v  *fusedV2V
	knn  *fusedKNNNaive
	cond *fusedCondensed
}

// labelCols are the columns every fused code reads from a label table, the
// single-column primary key first.
var labelCols = []string{"v", "hubs", "tds", "tas"}

// reads records the plan's two tables: the query stop's label table, and the
// second table with the columns read from it, the first pk of which must be
// exactly its primary key (0 leaves the key unchecked) and those in the
// targets slots hold the target ids it folds (none: a second label table).
func (p *FusedPlan) reads(labelTable, second string, pk int, targets []int, cols ...string) {
	p.tables[0] = tableRef{name: labelTable, cols: labelCols, pk: 1}
	p.tables[1] = tableRef{name: second, cols: cols, pk: pk, targets: targets}
}

// Kind names the recognized statement by its code ("v2v-ea",
// "knn-naive-ld", "otm-ea", ...) for tests and diagnostics.
func (p *FusedPlan) Kind() string { return p.code.String() }

// fusedV2V is Code 1: join of one lout and one lin label, MIN/MAX scalar or
// the witness row.
type fusedV2V struct {
	op        byte // 'E' (EA), 'L' (LD), 'S' (SD), 'W' (EA witness)
	outVParam int
	inVParam  int
	tParam    int // departure bound (EA/SD/witness) or arrival bound (LD)
	tEndParam int // SD only: arrival bound
}

// fusedKNNNaive is Code 2: lout label joined with a scan of the naive
// per-(hub, td) table, grouped by target.
type fusedKNNNaive struct {
	ea     bool
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
	qParam    int
	tParam    int
	kParam    int    // 0 = one-to-many (no LIMIT, no [1:k] slices)
	bucketCol string // dephour (EA) or arrhour (LD)
	topV      string // armA target column (vs)
	topVal    string // armA value column (tas for EA, tds for LD)
	expTd     string
	expV      string
	expTa     string
}

// condensed returns what Codes 3 and 4 fix besides the direction and the
// LIMIT parameter.
func condensed(ea bool, kParam int) *fusedCondensed {
	f := &fusedCondensed{ea: ea, qParam: 1, tParam: 2, kParam: kParam,
		bucketCol: "arrhour", topV: "vs", topVal: "tds",
		expTd: "tds_exp", expV: "vs_exp", expTa: "tas_exp"}
	if ea {
		f.bucketCol, f.topVal = "dephour", "tas"
	}
	return f
}

// code is one statement of the workload: its query code, its text, and the
// kernel values the text fixes.
type code struct {
	code obs.Code
	text string
	v2v  *fusedV2V
	knn  *fusedKNNNaive
	cond *fusedCondensed
	// pattern is text parsed with holeTable(n) in its %[n]s verbs and 1 in
	// its %[n]d verb.
	pattern *sql.Select
}

// holePrefix starts the reserved identifiers that stand for the table holes
// of a pattern.
const holePrefix = "ptldb_hole_"

// codes parses the workload once per process.
var codes = sync.OnceValue(func() []code {
	cs := []code{
		{code: obs.CodeV2VEA, text: SQLV2VEA, v2v: &fusedV2V{op: 'E', outVParam: 1, inVParam: 2, tParam: 3}},
		{code: obs.CodeV2VLD, text: SQLV2VLD, v2v: &fusedV2V{op: 'L', outVParam: 1, inVParam: 2, tParam: 3}},
		{code: obs.CodeV2VSD, text: SQLV2VSD, v2v: &fusedV2V{op: 'S', outVParam: 1, inVParam: 2, tParam: 3, tEndParam: 4}},
		{code: obs.CodeV2VEAWitness, text: SQLV2VEAWitness, v2v: &fusedV2V{op: 'W', outVParam: 1, inVParam: 2, tParam: 3}},
		{code: obs.CodeKNNNaiveEA, text: SQLKNNNaiveEA, knn: &fusedKNNNaive{ea: true, qParam: 1, tParam: 2, kParam: 3}},
		{code: obs.CodeKNNNaiveLD, text: SQLKNNNaiveLD, knn: &fusedKNNNaive{qParam: 1, tParam: 2, kParam: 3}},
		{code: obs.CodeKNNEA, text: SQLKNNEA, cond: condensed(true, 3)},
		{code: obs.CodeOTMEA, text: SQLOTMEA, cond: condensed(true, 0)},
		{code: obs.CodeKNNLD, text: SQLKNNLD, cond: condensed(false, 3)},
		{code: obs.CodeOTMLD, text: SQLOTMLD, cond: condensed(false, 0)},
	}
	for i := range cs {
		c := &cs[i]
		args := []any{holePrefix + "1", holePrefix + "2"}
		if c.cond != nil {
			args = []any{holePrefix + "1", 1, holePrefix + "3"}
		}
		pattern, err := sql.Parse(fmt.Sprintf(c.text, args...))
		if err != nil {
			panic(fmt.Sprintf("exec: %s does not parse: %v", c.code, err))
		}
		c.pattern = pattern
	}
	return cs
})

// Fuse compiles sel into a FusedPlan bound to cat's tables, or returns nil
// and no error when the statement is not one of the workload's. A statement
// of the workload whose tables do not have what its kernel reads and trusts
// is an error naming the table.
func Fuse(sel *sql.Select, cat Catalog) (*FusedPlan, error) {
	p := recognize(sel)
	if p == nil {
		return nil, nil
	}
	for i := range p.tables {
		if err := p.tables[i].bind(cat); err != nil {
			return nil, err
		}
	}
	p.metrics = cat.ExecMetrics()
	return p, nil
}

// recognize compiles sel into an unbound FusedPlan, or returns nil when the
// statement is not one of the workload's.
func recognize(sel *sql.Select) *FusedPlan {
	cs := codes()
	for i := range cs {
		c := &cs[i]
		var m match
		if !m.sel(c.pattern, sel) || !baseTablesDistinctFromCTEs(sel, m.tables[:]...) {
			continue
		}
		p := &FusedPlan{code: c.code, schema: itemSchema(sel.Core.Items), width: m.width,
			v2v: c.v2v, knn: c.knn, cond: c.cond}
		switch {
		case c.v2v != nil: // %[1]s = lout, %[2]s = lin
			p.reads(m.tables[0], m.tables[1], 1, nil, labelCols...)
		case c.knn != nil: // %[1]s = naive, %[2]s = lout
			p.reads(m.tables[1], m.tables[0], 0, []int{naiveVs}, "hub", "td", "vs", "tas")
		default: // %[1]s = condensed, keyed (bucket, hub); %[3]s = lout
			f := c.cond
			p.reads(m.tables[2], m.tables[0], 2, []int{auxTopV, auxExpV}, f.bucketCol, "hub", f.topV, f.topVal, f.expTd, f.expV, f.expTa)
			if f.ea {
				// Every arrival an EA row folds is no earlier than its bucket,
				// and a one-to-many is settled once every target is in.
				p.tables[1].floor, p.tables[1].width = []int{auxTopVal, auxExpTa}, m.width
				p.tables[1].counted = f.kParam == 0
			}
		}
		return p
	}
	return nil
}

// match is what a statement binds a pattern's holes to: tables[n-1] is the
// table in hole n, width the bucket width.
type match struct {
	tables [3]string
	width  int64
}

// sel walks pattern p and statement s in lock step and reports whether they
// are the same tree up to identifier case and the holes, which it binds.
func (m *match) sel(p, s *sql.Select) bool {
	if p == nil || s == nil {
		return p == nil && s == nil
	}
	if len(p.With) != len(s.With) || len(p.Arms) != len(s.Arms) || len(p.All) != len(s.All) ||
		len(p.OrderBy) != len(s.OrderBy) || (p.Core == nil) != (s.Core == nil) {
		return false
	}
	for i, cte := range p.With {
		if !strings.EqualFold(cte.Name, s.With[i].Name) || !m.sel(cte.Query, s.With[i].Query) {
			return false
		}
	}
	if p.Core != nil && !m.core(p.Core, s.Core) {
		return false
	}
	for i, arm := range p.Arms {
		if !m.sel(arm, s.Arms[i]) {
			return false
		}
	}
	for i, all := range p.All {
		if all != s.All[i] {
			return false
		}
	}
	for i, o := range p.OrderBy {
		if o.Desc != s.OrderBy[i].Desc || !m.expr(o.Expr, s.OrderBy[i].Expr) {
			return false
		}
	}
	return m.expr(p.Limit, s.Limit)
}

func (m *match) core(p, s *sql.SelectCore) bool {
	if len(p.Items) != len(s.Items) || len(p.From) != len(s.From) || len(p.GroupBy) != len(s.GroupBy) {
		return false
	}
	for i, it := range p.Items {
		o := s.Items[i]
		if !strings.EqualFold(it.Alias, o.Alias) ||
			!strings.EqualFold(it.Table, o.Table) || !m.expr(it.Expr, o.Expr) {
			return false
		}
	}
	for i, f := range p.From {
		o := s.From[i]
		if !strings.EqualFold(f.Alias, o.Alias) || !m.sel(f.Subquery, o.Subquery) || !m.table(f.Table, o.Table) {
			return false
		}
	}
	for i, g := range p.GroupBy {
		if !m.expr(g, s.GroupBy[i]) {
			return false
		}
	}
	return m.expr(p.Where, s.Where)
}

// table compares a FROM item's table name: a hole binds the statement's name,
// to the same name every time it appears; any other name must be equal.
func (m *match) table(p, s string) bool {
	n, isHole := strings.CutPrefix(p, holePrefix)
	if !isHole {
		return strings.EqualFold(p, s)
	}
	bound := &m.tables[n[0]-'1']
	if *bound == "" {
		*bound = s
	}
	return s != "" && strings.EqualFold(*bound, s)
}

// expr reports structural equality of two expressions. The one decimal
// literal of a pattern is its width hole: FLOOR(x/3600.0) keeps the division
// exact where an integer one would truncate toward zero on negative
// timestamps, and the fused runtime reproduces FLOOR of that quotient with
// integer floor division — so the statement's literal must be a decimal too,
// positive and integral.
func (m *match) expr(p, s sql.Expr) bool {
	if p == nil || s == nil {
		return p == nil && s == nil
	}
	switch x := p.(type) {
	case *sql.ColumnRef:
		y, ok := s.(*sql.ColumnRef)
		return ok && strings.EqualFold(x.Table, y.Table) && strings.EqualFold(x.Column, y.Column)
	case *sql.IntLit:
		y, ok := s.(*sql.IntLit)
		return ok && x.V == y.V
	case *sql.FloatLit:
		y, ok := s.(*sql.FloatLit)
		if !ok || y.V < 1 || y.V != math.Trunc(y.V) || y.V >= math.MaxInt64 {
			return false
		}
		m.width = int64(y.V)
		return true
	case *sql.Param:
		y, ok := s.(*sql.Param)
		return ok && x.N == y.N
	case *sql.BinaryOp:
		y, ok := s.(*sql.BinaryOp)
		return ok && x.Op == y.Op && m.expr(x.L, y.L) && m.expr(x.R, y.R)
	case *sql.FuncCall:
		y, ok := s.(*sql.FuncCall)
		return ok && x.Name == y.Name && m.expr(x.Arg, y.Arg)
	case *sql.ArraySlice:
		y, ok := s.(*sql.ArraySlice)
		return ok && m.expr(x.A, y.A) && m.expr(x.Lo, y.Lo) && m.expr(x.Hi, y.Hi)
	default:
		// No statement of the workload holds another kind of node.
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
