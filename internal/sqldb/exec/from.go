package exec

import (
	"fmt"
	"strings"

	"ptldb/internal/sqldb/sql"
	"ptldb/internal/sqldb/sqltypes"
)

// buildFrom materializes the FROM clause of a core, choosing access paths:
//
//   - a base table whose full primary key is equality-bound to parameter or
//     literal expressions becomes a point lookup (Code 1's
//     "FROM lout WHERE v=$1" touches exactly one row);
//   - a base table whose full primary key is equality-bound to expressions
//     over the already-joined relations becomes an index nested-loop join
//     (Code 3's join of the n1 CTE with knn_ea);
//   - everything else is materialized (CTE reference, derived subquery or
//     full table scan) and combined with a hash join on one integer equality
//     predicate — every join of Codes 1–4 matches on the hub column. A join
//     with no such predicate (a cross product, a TEXT key) is an error.
//
// All WHERE conjuncts are re-checked by the caller's filter, so access-path
// choices never change results.
func (r *runner) buildFrom(core *sql.SelectCore, scope *cteScope) (rel *Relation, filtered bool, err error) {
	conj := splitConjuncts(core.Where)

	srcs := make([]*source, 0, len(core.From))
	for _, fi := range core.From {
		alias := fi.Alias
		if alias == "" {
			alias = fi.Table
		}
		s := &source{alias: alias}
		switch {
		case fi.Subquery != nil:
			rel, err := r.evalSelect(fi.Subquery, scope)
			if err != nil {
				return nil, false, err
			}
			s.rel = &Relation{Schema: rel.Schema.requalify(alias), Rows: rel.Rows}
		default:
			if rel, ok := scope.lookup(fi.Table); ok {
				s.rel = &Relation{Schema: rel.Schema.requalify(alias), Rows: rel.Rows}
				break
			}
			tbl, ok := r.cat.Table(fi.Table)
			if !ok {
				return nil, false, fmt.Errorf("exec: unknown table %q", fi.Table)
			}
			s.tbl, s.cols = tbl, tbl.Columns()
		}
		srcs = append(srcs, s)
	}

	// Resolve base tables whose PK is bound by row-independent expressions.
	for _, s := range srcs {
		if s.tbl == nil {
			continue
		}
		exprs, ok := pkBindings(s.tbl, s.alias, s.cols, conj, nil)
		if !ok {
			continue
		}
		comps, err := r.compileAll(exprs, nil, nil)
		if err != nil {
			return nil, false, err
		}
		key := make([]int64, len(comps))
		null, err := evalKey(comps, nil, key)
		if err != nil {
			return nil, false, err
		}
		rel := &Relation{Schema: tableSchema(s.alias, s.cols)}
		if !null {
			row, found, err := s.tbl.LookupPK(key)
			if err != nil {
				return nil, false, err
			}
			if found {
				rel.Rows = append(rel.Rows, row)
			}
		}
		r.tracef("point lookup %s by primary key (%d row)", s.alias, len(rel.Rows))
		s.rel, s.tbl = rel, nil
	}

	// Fold the sources into one relation. The full WHERE clause is fused
	// into the final join so that rows failing the filter are never
	// materialized (the paper's Code 1 joins two unnested labels and keeps
	// only a small fraction of the pairs).
	var acc *Relation
	pending := srcs
	for len(pending) > 0 {
		var pred sql.Expr
		if len(pending) == 1 && acc != nil {
			pred = core.Where
		}
		if acc == nil {
			// Seed with the first materialized source, else scan a table.
			picked := -1
			for i, s := range pending {
				if s.rel != nil {
					picked = i
					break
				}
			}
			if picked < 0 {
				picked = 0
				if err := r.scanTable(pending[0]); err != nil {
					return nil, false, err
				}
			}
			acc = pending[picked].rel
			pending = append(pending[:picked:picked], pending[picked+1:]...)
			continue
		}
		// Prefer an index nested-loop join against a still-unmaterialized
		// base table bound by the accumulated columns.
		joined := false
		for i, s := range pending {
			if s.tbl == nil {
				continue
			}
			exprs, ok := pkBindings(s.tbl, s.alias, s.cols, conj, acc.Schema)
			if !ok {
				continue
			}
			next, err := r.indexJoin(acc, s.tbl, s.alias, s.cols, exprs, pred)
			if err != nil {
				return nil, false, err
			}
			r.tracef("index nested-loop join %s (%d probes, %d rows out)", s.alias, len(acc.Rows), len(next.Rows))
			acc = next
			filtered = pred != nil
			pending = append(pending[:i:i], pending[i+1:]...)
			joined = true
			break
		}
		if joined {
			continue
		}
		// Otherwise materialize the next source and hash join.
		s := pending[0]
		pending = pending[1:]
		if s.rel == nil {
			if err := r.scanTable(s); err != nil {
				return nil, false, err
			}
		}
		next, err := r.hashJoin(acc, s.rel, conj, pred)
		if err != nil {
			return nil, false, err
		}
		r.tracef("hash join %s (%d x %d -> %d rows)", s.alias, len(acc.Rows), len(s.rel.Rows), len(next.Rows))
		acc = next
		filtered = pred != nil
	}
	return acc, filtered, nil
}

// source is one FROM item during planning: either already materialized
// (rel) or a pending base table (tbl).
type source struct {
	alias string
	rel   *Relation
	tbl   Table
	cols  []string
}

// scanTable materializes a base table by a full scan.
func (r *runner) scanTable(s *source) error {
	rel := &Relation{Schema: tableSchema(s.alias, s.cols)}
	err := s.tbl.Scan(func(row sqltypes.Row) error {
		rel.Rows = append(rel.Rows, row)
		return nil
	})
	if err != nil {
		return err
	}
	r.tracef("full scan %s (%d rows)", s.alias, len(rel.Rows))
	s.rel, s.tbl = rel, nil
	return nil
}

func tableSchema(alias string, cols []string) Schema {
	s := make(Schema, len(cols))
	for i, c := range cols {
		s[i] = ColID{Qual: alias, Name: c}
	}
	return s
}

// splitConjuncts flattens the AND tree of a WHERE clause.
func splitConjuncts(e sql.Expr) []sql.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*sql.BinaryOp); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []sql.Expr{e}
}

// pkBindings looks for equality conjuncts binding every PK column of the
// table (aliased alias, columns cols). A binding expression must reference
// no columns when outer is nil, or only columns of outer otherwise. It
// returns one binding expression per PK column, in key order.
func pkBindings(tbl Table, alias string, cols []string, conj []sql.Expr, outer Schema) ([]sql.Expr, bool) {
	pk := tbl.PKCols()
	if len(pk) == 0 {
		return nil, false
	}
	out := make([]sql.Expr, len(pk))
	for i, ci := range pk {
		name := cols[ci]
		var found sql.Expr
		for _, c := range conj {
			b, ok := c.(*sql.BinaryOp)
			if !ok || b.Op != "=" {
				continue
			}
			for _, side := range [2][2]sql.Expr{{b.L, b.R}, {b.R, b.L}} {
				col, ok := side[0].(*sql.ColumnRef)
				if !ok || !strings.EqualFold(col.Column, name) {
					continue
				}
				if col.Table != "" && !strings.EqualFold(col.Table, alias) {
					continue
				}
				if !exprRefsOnly(side[1], outer) {
					continue
				}
				found = side[1]
				break
			}
			if found != nil {
				break
			}
		}
		if found == nil {
			return nil, false
		}
		out[i] = found
	}
	return out, true
}

// exprRefsOnly reports whether every column reference in e resolves within
// schema (or whether e has no column references when schema is nil).
func exprRefsOnly(e sql.Expr, schema Schema) bool {
	ok := true
	walkExpr(e, func(x sql.Expr) {
		if c, okc := x.(*sql.ColumnRef); okc {
			if schema == nil {
				ok = false
				return
			}
			if _, err := schema.resolve(c.Table, c.Column); err != nil {
				ok = false
			}
		}
	})
	return ok
}

// evalKey evaluates compiled key expressions — PK bindings, or the two sides
// of a hash join — to integer key values into dst. null reports that some
// component was NULL (no row can match).
func evalKey(comps []compiledExpr, row sqltypes.Row, dst []int64) (null bool, err error) {
	for i, c := range comps {
		v, err := c(row)
		if err != nil {
			return false, err
		}
		if v.IsNull() {
			return true, nil
		}
		k, err := v.AsInt()
		if err != nil {
			return false, fmt.Errorf("exec: non-integer key value (keys and joins match BIGINT columns): %w", err)
		}
		dst[i] = k
	}
	return false, nil
}

// rowArena hands out row slices from large chunks, cutting the per-row
// allocation count of joins by three orders of magnitude. Emitted rows stay
// valid forever (chunks are never reused).
type rowArena struct {
	chunk []sqltypes.Value
}

const arenaChunk = 16384

func (a *rowArena) alloc(n int) sqltypes.Row {
	if len(a.chunk)+n > cap(a.chunk) {
		size := arenaChunk
		if n > size {
			size = n
		}
		a.chunk = make([]sqltypes.Value, 0, size)
	}
	start := len(a.chunk)
	a.chunk = a.chunk[:start+n]
	return a.chunk[start : start+n : start+n]
}

// concat places the concatenation of two rows in the arena.
func (a *rowArena) concat(x, y sqltypes.Row) sqltypes.Row {
	out := a.alloc(len(x) + len(y))
	copy(out, x)
	copy(out[len(x):], y)
	return out
}

// indexJoin performs the index nested-loop join of acc with a base table:
// for each accumulated row the binding expressions are evaluated and the
// matching table row (if any) appended.
func (r *runner) indexJoin(acc *Relation, tbl Table, alias string, cols []string, exprs []sql.Expr, pred sql.Expr) (*Relation, error) {
	comps, err := r.compileAll(exprs, acc.Schema, nil)
	if err != nil {
		return nil, err
	}
	out := &Relation{Schema: append(append(Schema{}, acc.Schema...), tableSchema(alias, cols)...)}
	keep, err := r.compilePred(pred, out.Schema)
	if err != nil {
		return nil, err
	}
	var arena rowArena
	key := make([]int64, len(comps))
	scratch := make(sqltypes.Row, len(out.Schema))
	for _, arow := range acc.Rows {
		null, err := evalKey(comps, arow, key)
		if err != nil {
			return nil, err
		}
		if null {
			continue
		}
		trow, found, err := tbl.LookupPK(key)
		if err != nil {
			return nil, err
		}
		if !found {
			continue
		}
		if keep != nil {
			copy(scratch, arow)
			copy(scratch[len(arow):], trow)
			ok, err := keep(scratch)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		out.Rows = append(out.Rows, arena.concat(arow, trow))
	}
	return out, nil
}

// compilePred compiles a fused filter; nil pred compiles to nil.
func (r *runner) compilePred(pred sql.Expr, schema Schema) (func(sqltypes.Row) (bool, error), error) {
	if pred == nil {
		return nil, nil
	}
	ce := &compileEnv{schema: schema, params: r.params}
	c, err := ce.compile(pred)
	if err != nil {
		return nil, err
	}
	return func(row sqltypes.Row) (bool, error) {
		v, err := c(row)
		if err != nil {
			return false, err
		}
		t, null := truth(v)
		return t && !null, nil
	}, nil
}

// hashJoin joins two materialized relations on the first equality conjunct
// whose sides split across them, hashed as the integer key a lookup would
// probe with (evalKey: NULLs never match, a TEXT or array key is an error).
// It is a candidate generator: that conjunct and every other are left to the
// WHERE clause, which the caller re-checks in full. A non-nil pred (the residual WHERE)
// filters joined rows before they are materialized — the paper's Code 1 joins
// two unnested labels and keeps only a small fraction of the pairs.
func (r *runner) hashJoin(a, b *Relation, conj []sql.Expr, pred sql.Expr) (*Relation, error) {
	var aExpr, bExpr sql.Expr
	for _, c := range conj {
		bo, ok := c.(*sql.BinaryOp)
		if !ok || bo.Op != "=" || isConstant(bo.L) || isConstant(bo.R) {
			continue
		}
		if exprRefsOnly(bo.L, a.Schema) && exprRefsOnly(bo.R, b.Schema) {
			aExpr, bExpr = bo.L, bo.R
			break
		}
		if exprRefsOnly(bo.R, a.Schema) && exprRefsOnly(bo.L, b.Schema) {
			aExpr, bExpr = bo.R, bo.L
			break
		}
	}
	if aExpr == nil {
		return nil, fmt.Errorf("exec: not in the dialect (DESIGN.md §3.4): a join without an equality between its two sides (cross product)")
	}
	out := &Relation{Schema: append(append(Schema{}, a.Schema...), b.Schema...)}
	keep, err := r.compilePred(pred, out.Schema)
	if err != nil {
		return nil, err
	}
	aKey, err := r.compileAll([]sql.Expr{aExpr}, a.Schema, nil)
	if err != nil {
		return nil, err
	}
	bKey, err := r.compileAll([]sql.Expr{bExpr}, b.Schema, nil)
	if err != nil {
		return nil, err
	}

	index := make(map[int64][]sqltypes.Row, len(b.Rows))
	var k [1]int64
	for _, br := range b.Rows {
		null, err := evalKey(bKey, br, k[:])
		if err != nil {
			return nil, err
		}
		if !null {
			index[k[0]] = append(index[k[0]], br)
		}
	}
	var arena rowArena
	scratch := make(sqltypes.Row, len(out.Schema))
	for _, ar := range a.Rows {
		null, err := evalKey(aKey, ar, k[:])
		if err != nil {
			return nil, err
		}
		if null {
			continue
		}
		for _, br := range index[k[0]] {
			if keep != nil {
				copy(scratch, ar)
				copy(scratch[len(ar):], br)
				ok, err := keep(scratch)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			out.Rows = append(out.Rows, arena.concat(ar, br))
		}
	}
	return out, nil
}

// isConstant reports whether e contains no column references.
func isConstant(e sql.Expr) bool { return exprRefsOnly(e, nil) }
