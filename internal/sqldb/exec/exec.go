package exec

import (
	"fmt"
	"sort"
	"strings"

	"ptldb/internal/sqldb/sql"
	"ptldb/internal/sqldb/sqltypes"
)

// Run evaluates a parsed select against the catalog with the given
// positional parameters.
func Run(sel *sql.Select, cat Catalog, params []sqltypes.Value) (*Relation, error) {
	r := &runner{cat: cat, params: params}
	return r.evalSelect(sel, nil)
}

// RunTraced is Run, additionally returning one line per access-path decision
// the planner took (point lookups, index nested-loop joins, hash joins,
// full scans) in execution order — the engine's EXPLAIN ANALYZE.
func RunTraced(sel *sql.Select, cat Catalog, params []sqltypes.Value) (*Relation, []string, error) {
	r := &runner{cat: cat, params: params, trace: new([]string)}
	rel, err := r.evalSelect(sel, nil)
	return rel, *r.trace, err
}

type runner struct {
	cat    Catalog
	params []sqltypes.Value
	// trace, when non-nil, accumulates access-path decisions.
	trace *[]string
}

func (r *runner) tracef(format string, args ...any) {
	if r.trace != nil {
		*r.trace = append(*r.trace, fmt.Sprintf(format, args...))
	}
}

// cteScope is a linked list of CTE bindings, innermost first.
type cteScope struct {
	name   string
	rel    *Relation
	parent *cteScope
}

func (s *cteScope) lookup(name string) (*Relation, bool) {
	for c := s; c != nil; c = c.parent {
		if strings.EqualFold(c.name, name) {
			return c.rel, true
		}
	}
	return nil, false
}

func (r *runner) compileAll(exprs []sql.Expr, schema Schema, agg *map[*sql.FuncCall]sqltypes.Value) ([]compiledExpr, error) {
	ce := &compileEnv{schema: schema, params: r.params, agg: agg}
	out := make([]compiledExpr, len(exprs))
	for i, e := range exprs {
		c, err := ce.compile(e)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

func (r *runner) evalSelect(sel *sql.Select, scope *cteScope) (*Relation, error) {
	for _, cte := range sel.With {
		rel, err := r.evalSelect(cte.Query, scope)
		if err != nil {
			return nil, fmt.Errorf("in CTE %s: %w", cte.Name, err)
		}
		// The CTE's own name qualifies its columns for the outer query.
		rel = &Relation{Schema: rel.Schema.requalify(cte.Name), Rows: rel.Rows}
		scope = &cteScope{name: cte.Name, rel: rel, parent: scope}
	}

	if sel.Core != nil {
		return r.evalCore(sel.Core, sel.OrderBy, sel.Limit, scope)
	}

	// Compound select: evaluate arms and combine. The parser gives a set
	// operation no ORDER BY or LIMIT of its own.
	var out *Relation
	seen := map[string]bool{}
	for i, arm := range sel.Arms {
		rel, err := r.evalSelect(arm, scope)
		if err != nil {
			return nil, err
		}
		dedup := false
		if out == nil {
			out = &Relation{Schema: rel.Schema}
			// UNION (not ALL) dedups rows of the first arm too.
			dedup = len(sel.All) > 0 && !sel.All[0]
		} else {
			if len(rel.Schema) != len(out.Schema) {
				return nil, fmt.Errorf("exec: UNION arms have %d and %d columns", len(out.Schema), len(rel.Schema))
			}
			dedup = !sel.All[i-1]
		}
		var buf []byte
		for _, row := range rel.Rows {
			if dedup {
				buf = sqltypes.EncodeRow(buf[:0], row)
				if seen[string(buf)] {
					continue
				}
				seen[string(buf)] = true
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// limitCount evaluates a LIMIT expression, returning -1 when it is absent.
func (r *runner) limitCount(limit sql.Expr) (int, error) {
	if limit == nil {
		return -1, nil
	}
	ce := &compileEnv{params: r.params}
	c, err := ce.compile(limit)
	if err != nil {
		return 0, err
	}
	v, err := c(nil)
	if err != nil {
		return 0, err
	}
	n, err := v.AsInt()
	if err != nil {
		return 0, fmt.Errorf("exec: LIMIT: %w", err)
	}
	if n < 0 {
		return 0, fmt.Errorf("exec: negative LIMIT %d", n)
	}
	return int(n), nil
}

// orderAndLimit applies a statement's ORDER BY (keys are parallel to
// rel.Rows; may be nil when orderBy is empty) and LIMIT. When a LIMIT
// bounds an ordered result below its size, a bounded top-k selection
// replaces the full sort, so kNN-style queries stop sorting at k.
func (r *runner) orderAndLimit(rel *Relation, keys []sqltypes.Row, orderBy []sql.OrderItem, limit sql.Expr) error {
	n, err := r.limitCount(limit)
	if err != nil {
		return err
	}
	if len(orderBy) > 0 {
		if n >= 0 && n < len(rel.Rows) {
			return topKRows(rel, keys, orderBy, n)
		}
		if err := sortRows(rel.Rows, keys, orderBy); err != nil {
			return err
		}
	}
	if n >= 0 && n < len(rel.Rows) {
		rel.Rows = rel.Rows[:n]
	}
	return nil
}

// topKRows replaces rel.Rows with the n first rows of the stable sort by
// keys, without sorting the rest: a bounded heap of row indices whose root
// is the worst kept row. Ties break on the original index, which makes the
// order total and the result identical to sortRows + truncate.
func topKRows(rel *Relation, keys []sqltypes.Row, orderBy []sql.OrderItem, n int) error {
	if len(rel.Rows) != len(keys) {
		return fmt.Errorf("exec: internal: %d rows but %d sort keys", len(rel.Rows), len(keys))
	}
	if n == 0 {
		rel.Rows = rel.Rows[:0]
		return nil
	}
	var cmpErr error
	less := func(a, b int) bool {
		ka, kb := keys[a], keys[b]
		for j := range orderBy {
			c, err := sqltypes.Compare(ka[j], kb[j])
			if err != nil {
				cmpErr = err
				return false
			}
			if c != 0 {
				if orderBy[j].Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return a < b
	}
	worse := func(a, b int) bool { return less(b, a) }
	h := make([]int, 0, n)
	siftUp := func(i int) {
		for i > 0 {
			parent := (i - 1) / 2
			if !worse(h[i], h[parent]) {
				break
			}
			h[i], h[parent] = h[parent], h[i]
			i = parent
		}
	}
	siftDown := func(i int) {
		for {
			l, rc := 2*i+1, 2*i+2
			m := i
			if l < len(h) && worse(h[l], h[m]) {
				m = l
			}
			if rc < len(h) && worse(h[rc], h[m]) {
				m = rc
			}
			if m == i {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i := range rel.Rows {
		if len(h) < n {
			h = append(h, i)
			siftUp(len(h) - 1)
		} else if less(i, h[0]) {
			h[0] = i
			siftDown(0)
		}
		if cmpErr != nil {
			return cmpErr
		}
	}
	sort.Slice(h, func(a, b int) bool { return less(h[a], h[b]) })
	if cmpErr != nil {
		return cmpErr
	}
	out := make([]sqltypes.Row, len(h))
	for i, j := range h {
		out[i] = rel.Rows[j]
	}
	rel.Rows = out
	return nil
}

// evalCore evaluates one SELECT core plus its statement-level ORDER BY and
// LIMIT.
func (r *runner) evalCore(core *sql.SelectCore, orderBy []sql.OrderItem, limit sql.Expr, scope *cteScope) (*Relation, error) {
	input, filtered, err := r.buildFrom(core, scope)
	if err != nil {
		return nil, err
	}

	// Filter (unless the WHERE clause was already fused into the final
	// join by buildFrom).
	if core.Where != nil && !filtered {
		ce := &compileEnv{schema: input.Schema, params: r.params}
		pred, err := ce.compile(core.Where)
		if err != nil {
			return nil, err
		}
		kept := input.Rows[:0:0]
		for _, row := range input.Rows {
			v, err := pred(row)
			if err != nil {
				return nil, err
			}
			if t, null := truth(v); t && !null {
				kept = append(kept, row)
			}
		}
		input = &Relation{Schema: input.Schema, Rows: kept}
	}

	items, err := expandStars(core.Items, input.Schema)
	if err != nil {
		return nil, err
	}

	hasAgg := len(core.GroupBy) > 0
	for _, it := range items {
		if containsAggregate(it.Expr) {
			hasAgg = true
		}
	}
	for _, oi := range orderBy {
		if containsAggregate(oi.Expr) {
			hasAgg = true
		}
	}
	hasUnnest := false
	for _, it := range items {
		if it.Expr != nil && containsUnnest(it.Expr) {
			hasUnnest = true
		}
	}
	if hasAgg && hasUnnest {
		return nil, fmt.Errorf("exec: UNNEST cannot be combined with aggregation in one SELECT")
	}

	var out *Relation
	var orderKeys []sqltypes.Row
	if hasAgg {
		out, orderKeys, err = r.evalGrouped(core, items, orderBy, input)
	} else if hasUnnest {
		out, err = r.evalUnnest(items, input)
	} else {
		out, err = r.evalProject(items, input)
	}
	if err != nil {
		return nil, err
	}

	if len(orderBy) > 0 && !hasAgg {
		// Grouped cores computed their keys per group (possibly zero of
		// them); everything else sorts on per-row keys.
		orderKeys, err = r.plainOrderKeys(orderBy, input, out, hasUnnest)
		if err != nil {
			return nil, err
		}
	}
	if err := r.orderAndLimit(out, orderKeys, orderBy, limit); err != nil {
		return nil, err
	}
	return out, nil
}

// plainOrderKeys computes ORDER BY keys for non-grouped cores. Keys are
// evaluated against the output schema when every column reference resolves
// there (required for UNNEST cores, whose output rows do not correspond 1:1
// to input rows); otherwise against the input rows, which are parallel to
// the output rows.
func (r *runner) plainOrderKeys(orderBy []sql.OrderItem, input, out *Relation, unnested bool) ([]sqltypes.Row, error) {
	resolvesOnOutput := true
	for _, oi := range orderBy {
		var bad bool
		walkExpr(oi.Expr, func(e sql.Expr) {
			if c, ok := e.(*sql.ColumnRef); ok {
				if _, err := out.Schema.resolve(c.Table, c.Column); err != nil {
					bad = true
				}
			}
		})
		if bad {
			resolvesOnOutput = false
		}
	}
	src := out
	if !resolvesOnOutput {
		if unnested {
			return nil, fmt.Errorf("exec: ORDER BY after UNNEST must reference output columns")
		}
		src = input
	}
	exprs := make([]sql.Expr, len(orderBy))
	for i, oi := range orderBy {
		exprs[i] = oi.Expr
	}
	comps, err := r.compileAll(exprs, src.Schema, nil)
	if err != nil {
		return nil, err
	}
	keys := make([]sqltypes.Row, len(src.Rows))
	for i, row := range src.Rows {
		key := make(sqltypes.Row, len(comps))
		for j, c := range comps {
			v, err := c(row)
			if err != nil {
				return nil, err
			}
			key[j] = v
		}
		keys[i] = key
	}
	return keys, nil
}

// sortRows stably sorts rows by the parallel keys honoring per-item
// direction.
func sortRows(rows []sqltypes.Row, keys []sqltypes.Row, orderBy []sql.OrderItem) error {
	if len(rows) != len(keys) {
		return fmt.Errorf("exec: internal: %d rows but %d sort keys", len(rows), len(keys))
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	var sortErr error
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := keys[idx[a]], keys[idx[b]]
		for j := range orderBy {
			c, err := sqltypes.Compare(ka[j], kb[j])
			if err != nil {
				sortErr = err
				return false
			}
			if c != 0 {
				if orderBy[j].Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	if sortErr != nil {
		return sortErr
	}
	orig := make([]sqltypes.Row, len(rows))
	copy(orig, rows)
	for i, j := range idx {
		rows[i] = orig[j]
	}
	return nil
}

// expandStars replaces tbl.* items with explicit column references.
func expandStars(items []sql.SelectItem, schema Schema) ([]sql.SelectItem, error) {
	out := make([]sql.SelectItem, 0, len(items))
	for _, it := range items {
		if it.Table == "" {
			out = append(out, it)
			continue
		}
		matched := false
		for _, c := range schema {
			if !strings.EqualFold(c.Qual, it.Table) {
				continue
			}
			matched = true
			out = append(out, sql.SelectItem{
				Expr:  &sql.ColumnRef{Table: c.Qual, Column: c.Name},
				Alias: c.Name,
			})
		}
		if !matched {
			return nil, fmt.Errorf("exec: %s.* matches no columns", it.Table)
		}
	}
	return out, nil
}

func itemExprs(items []sql.SelectItem) []sql.Expr {
	out := make([]sql.Expr, len(items))
	for i, it := range items {
		out[i] = it.Expr
	}
	return out
}

// evalProject computes a plain projection.
func (r *runner) evalProject(items []sql.SelectItem, input *Relation) (*Relation, error) {
	out := &Relation{Schema: itemSchema(items)}
	comps, err := r.compileAll(itemExprs(items), input.Schema, nil)
	if err != nil {
		return nil, err
	}
	out.Rows = make([]sqltypes.Row, 0, len(input.Rows))
	var arena rowArena
	for _, row := range input.Rows {
		orow := arena.alloc(len(comps))
		for i, c := range comps {
			v, err := c(row)
			if err != nil {
				return nil, err
			}
			orow[i] = v
		}
		out.Rows = append(out.Rows, orow)
	}
	return out, nil
}

// evalUnnest computes a projection where one or more items are top-level
// UNNEST calls: each input row expands to as many output rows as the longest
// unnested array (shorter arrays pad with NULL), with scalar items repeated.
// This matches PostgreSQL's parallel unnesting of same-length arrays, which
// the PTLDB schema guarantees.
func (r *runner) evalUnnest(items []sql.SelectItem, input *Relation) (*Relation, error) {
	ce := &compileEnv{schema: input.Schema, params: r.params}
	unnest := make([]compiledExpr, len(items)) // nil => scalar item
	scalar := make([]compiledExpr, len(items))
	for i, it := range items {
		if fc, ok := it.Expr.(*sql.FuncCall); ok && fc.Name == "UNNEST" {
			c, err := ce.compile(fc.Arg)
			if err != nil {
				return nil, err
			}
			unnest[i] = c
			continue
		}
		if containsUnnest(it.Expr) {
			return nil, fmt.Errorf("exec: UNNEST must be a top-level select item")
		}
		c, err := ce.compile(it.Expr)
		if err != nil {
			return nil, err
		}
		scalar[i] = c
	}

	out := &Relation{Schema: itemSchema(items)}
	merged := uint64(0) // rows produced by UNNEST expansion
	arrays := make([][]int32, len(items))
	arrayNull := make([]bool, len(items))
	scalars := make(sqltypes.Row, len(items))
	for _, row := range input.Rows {
		maxLen := 0
		for i := range items {
			if unnest[i] != nil {
				v, err := unnest[i](row)
				if err != nil {
					return nil, err
				}
				if v.IsNull() {
					arrays[i], arrayNull[i] = nil, true
					continue
				}
				if v.T != sqltypes.IntArray {
					return nil, fmt.Errorf("exec: UNNEST of %s", v.T)
				}
				arrays[i], arrayNull[i] = v.A, false
				if len(v.A) > maxLen {
					maxLen = len(v.A)
				}
			} else {
				v, err := scalar[i](row)
				if err != nil {
					return nil, err
				}
				scalars[i] = v
			}
		}
		// One backing allocation for the expansion of this input row.
		backing := make(sqltypes.Row, maxLen*len(items))
		for j := 0; j < maxLen; j++ {
			orow := backing[j*len(items) : (j+1)*len(items)]
			for i := range items {
				if unnest[i] != nil {
					if !arrayNull[i] && j < len(arrays[i]) {
						orow[i] = sqltypes.NewInt(int64(arrays[i][j])) // an element widens to BIGINT
					} else {
						orow[i] = sqltypes.Null
					}
				} else {
					orow[i] = scalars[i]
				}
			}
			out.Rows = append(out.Rows, orow)
		}
		merged += uint64(maxLen)
	}
	r.cat.ExecMetrics().TuplesMerged.Add(merged)
	return out, nil
}

// evalGrouped computes aggregation with optional GROUP BY, returning the
// output relation and the per-group ORDER BY keys.
func (r *runner) evalGrouped(core *sql.SelectCore, items []sql.SelectItem, orderBy []sql.OrderItem, input *Relation) (*Relation, []sqltypes.Row, error) {
	// Collect every aggregate call node across select items and order items.
	var aggs []*sql.FuncCall
	for _, it := range items {
		collectAggregates(it.Expr, &aggs)
	}
	for _, oi := range orderBy {
		collectAggregates(oi.Expr, &aggs)
	}

	// Without GROUP BY there is a single group whose representative row may
	// not exist (empty input), so bare column references are invalid — the
	// standard SQL rule.
	if len(core.GroupBy) == 0 {
		for _, it := range items {
			if hasBareColumnRef(it.Expr) {
				return nil, nil, fmt.Errorf("exec: column reference outside aggregate requires GROUP BY")
			}
		}
		for _, oi := range orderBy {
			if hasBareColumnRef(oi.Expr) {
				return nil, nil, fmt.Errorf("exec: ORDER BY column outside aggregate requires GROUP BY")
			}
		}
	}

	// Compile the aggregate argument expressions and the GROUP BY keys
	// against the input schema.
	aggArgs := make([]compiledExpr, len(aggs))
	ce := &compileEnv{schema: input.Schema, params: r.params}
	for i, a := range aggs {
		if a.Arg == nil { // COUNT(*)
			continue
		}
		c, err := ce.compile(a.Arg)
		if err != nil {
			return nil, nil, err
		}
		aggArgs[i] = c
	}
	groupComps, err := r.compileAll(core.GroupBy, input.Schema, nil)
	if err != nil {
		return nil, nil, err
	}

	// Compile output and order expressions with aggregate substitution: the
	// closures read aggValues, rebound per group below.
	var aggValues map[*sql.FuncCall]sqltypes.Value
	itemComps, err := r.compileAll(itemExprs(items), input.Schema, &aggValues)
	if err != nil {
		return nil, nil, err
	}
	orderExprs := make([]sql.Expr, len(orderBy))
	for i, oi := range orderBy {
		orderExprs[i] = oi.Expr
	}
	orderComps, err := r.compileAll(orderExprs, input.Schema, &aggValues)
	if err != nil {
		return nil, nil, err
	}

	type group struct {
		first  sqltypes.Row
		states []aggState
	}
	groups := map[string]*group{}
	var groupOrder []string // first-seen order

	keyVals := make(sqltypes.Row, len(groupComps))
	var keyBuf []byte
	for _, row := range input.Rows {
		keyBuf = keyBuf[:0]
		if len(groupComps) > 0 {
			for i, c := range groupComps {
				v, err := c(row)
				if err != nil {
					return nil, nil, err
				}
				keyVals[i] = v
			}
			keyBuf = sqltypes.EncodeRow(keyBuf, keyVals)
		}
		g, ok := groups[string(keyBuf)]
		if !ok {
			g = &group{first: row, states: make([]aggState, len(aggs))}
			groups[string(keyBuf)] = g
			groupOrder = append(groupOrder, string(keyBuf))
		}
		for i, a := range aggs {
			if err := g.states[i].observe(a, aggArgs[i], row); err != nil {
				return nil, nil, err
			}
		}
	}
	// A query with aggregates but no GROUP BY produces exactly one row, even
	// over empty input (Code 1 relies on MIN over an empty join being NULL).
	if len(core.GroupBy) == 0 && len(groups) == 0 {
		groups[""] = &group{first: nil, states: make([]aggState, len(aggs))}
		groupOrder = append(groupOrder, "")
	}

	out := &Relation{Schema: itemSchema(items)}
	var sortKeys []sqltypes.Row
	for _, k := range groupOrder {
		g := groups[k]
		aggValues = make(map[*sql.FuncCall]sqltypes.Value, len(aggs))
		for i, a := range aggs {
			aggValues[a] = g.states[i].result(a)
		}
		orow := make(sqltypes.Row, len(itemComps))
		for i, c := range itemComps {
			v, err := c(g.first)
			if err != nil {
				return nil, nil, err
			}
			orow[i] = v
		}
		out.Rows = append(out.Rows, orow)
		if len(orderComps) > 0 {
			key := make(sqltypes.Row, len(orderComps))
			for j, c := range orderComps {
				v, err := c(g.first)
				if err != nil {
					return nil, nil, err
				}
				key[j] = v
			}
			sortKeys = append(sortKeys, key)
		}
	}
	return out, sortKeys, nil
}

// aggState accumulates one aggregate over a group: the row count for
// COUNT(*), the extreme BIGINT seen for MIN / MAX.
type aggState struct {
	count int64
	best  int64
	seen  bool
}

func (st *aggState) observe(a *sql.FuncCall, arg compiledExpr, row sqltypes.Row) error {
	if arg == nil { // COUNT(*)
		st.count++
		return nil
	}
	v, err := arg(row)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	if v.T != sqltypes.Int64 {
		return fmt.Errorf("exec: %s of %s: the dialect aggregates BIGINT only", a.Name, v.T)
	}
	if !st.seen || (a.Name == "MIN" && v.I < st.best) || (a.Name == "MAX" && v.I > st.best) {
		st.best, st.seen = v.I, true
	}
	return nil
}

// result is the aggregate's value; MIN / MAX over no non-NULL input is NULL.
func (st *aggState) result(a *sql.FuncCall) sqltypes.Value {
	switch {
	case a.Name == "COUNT":
		return sqltypes.NewInt(st.count)
	case st.seen:
		return sqltypes.NewInt(st.best)
	default:
		return sqltypes.Null
	}
}

// itemSchema derives the output schema of a projection.
func itemSchema(items []sql.SelectItem) Schema {
	s := make(Schema, len(items))
	for i, it := range items {
		name := it.Alias
		if name == "" {
			name = defaultName(it.Expr)
		}
		s[i] = ColID{Name: name}
	}
	return s
}
