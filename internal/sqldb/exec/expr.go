package exec

import (
	"fmt"
	"math"
	"strings"

	"ptldb/internal/sqldb/sql"
	"ptldb/internal/sqldb/sqltypes"
)

// Expressions are compiled once per operator into closures with column
// references resolved to row indices, so per-row evaluation does no name
// lookups and no AST walking. Aggregate calls compile into reads of the
// current group's result map (rebound per group by the grouping operator).

// compiledExpr evaluates one expression over a row.
type compiledExpr func(row sqltypes.Row) (sqltypes.Value, error)

// aggregateFuncs lists the dialect's aggregate function names.
var aggregateFuncs = map[string]bool{"MIN": true, "MAX": true, "COUNT": true}

// compileEnv carries compilation context.
type compileEnv struct {
	schema Schema
	params []sqltypes.Value
	// agg, when non-nil, points at the variable holding the current group's
	// aggregate results; compiled aggregate nodes read through it.
	agg *map[*sql.FuncCall]sqltypes.Value
}

// compile translates e into a closure. Unknown columns, unknown functions
// and aggregates outside a grouping context are compile-time errors.
func (ce *compileEnv) compile(e sql.Expr) (compiledExpr, error) {
	switch x := e.(type) {
	case *sql.IntLit:
		v := sqltypes.NewInt(x.V)
		return func(sqltypes.Row) (sqltypes.Value, error) { return v, nil }, nil
	case *sql.FloatLit:
		v := sqltypes.NewFloat(x.V)
		return func(sqltypes.Row) (sqltypes.Value, error) { return v, nil }, nil
	case *sql.Param:
		if x.N > len(ce.params) {
			return nil, fmt.Errorf("exec: parameter $%d not supplied (%d given)", x.N, len(ce.params))
		}
		v := ce.params[x.N-1]
		return func(sqltypes.Row) (sqltypes.Value, error) { return v, nil }, nil
	case *sql.ColumnRef:
		i, err := ce.schema.resolve(x.Table, x.Column)
		if err != nil {
			return nil, err
		}
		return func(row sqltypes.Row) (sqltypes.Value, error) { return row[i], nil }, nil
	case *sql.BinaryOp:
		return ce.compileBinary(x)
	case *sql.FuncCall:
		if aggregateFuncs[x.Name] {
			if ce.agg == nil {
				return nil, fmt.Errorf("exec: aggregate %s in a non-aggregate context", x.Name)
			}
			aggVar := ce.agg
			node := x
			return func(sqltypes.Row) (sqltypes.Value, error) {
				v, ok := (*aggVar)[node]
				if !ok {
					return sqltypes.Null, fmt.Errorf("exec: internal: aggregate %s not computed", node.Name)
				}
				return v, nil
			}, nil
		}
		return ce.compileFunc(x)
	case *sql.ArraySlice:
		av, err := ce.compile(x.A)
		if err != nil {
			return nil, err
		}
		lov, err := ce.compile(x.Lo)
		if err != nil {
			return nil, err
		}
		hiv, err := ce.compile(x.Hi)
		if err != nil {
			return nil, err
		}
		return func(row sqltypes.Row) (sqltypes.Value, error) {
			a, err := av(row)
			if err != nil {
				return sqltypes.Null, err
			}
			lo, err := lov(row)
			if err != nil {
				return sqltypes.Null, err
			}
			hi, err := hiv(row)
			if err != nil {
				return sqltypes.Null, err
			}
			if a.IsNull() || lo.IsNull() || hi.IsNull() {
				return sqltypes.Null, nil
			}
			if a.T != sqltypes.IntArray {
				return sqltypes.Null, fmt.Errorf("exec: slice of non-array %s", a.T)
			}
			l, err := lo.AsInt()
			if err != nil {
				return sqltypes.Null, err
			}
			h, err := hi.AsInt()
			if err != nil {
				return sqltypes.Null, err
			}
			// PostgreSQL clamps slices to the actual bounds.
			if l < 1 {
				l = 1
			}
			if int(h) > len(a.A) {
				h = int64(len(a.A))
			}
			if l > h {
				return sqltypes.NewIntArray(nil), nil
			}
			return sqltypes.NewIntArray(a.A[l-1 : h]), nil
		}, nil
	default:
		return nil, fmt.Errorf("exec: unsupported expression %T", e)
	}
}

func (ce *compileEnv) compileBinary(x *sql.BinaryOp) (compiledExpr, error) {
	l, err := ce.compile(x.L)
	if err != nil {
		return nil, err
	}
	r, err := ce.compile(x.R)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "AND":
		return func(row sqltypes.Row) (sqltypes.Value, error) {
			lv, err := l(row)
			if err != nil {
				return sqltypes.Null, err
			}
			lt, lnull := truth(lv)
			if !lnull && !lt {
				return boolVal(false), nil
			}
			rv, err := r(row)
			if err != nil {
				return sqltypes.Null, err
			}
			rt, rnull := truth(rv)
			switch {
			case !rnull && !rt:
				return boolVal(false), nil
			case lnull || rnull:
				return sqltypes.Null, nil
			default:
				return boolVal(true), nil
			}
		}, nil
	case "=", "<", "<=", ">", ">=":
		op := x.Op
		return func(row sqltypes.Row) (sqltypes.Value, error) {
			lv, err := l(row)
			if err != nil {
				return sqltypes.Null, err
			}
			rv, err := r(row)
			if err != nil {
				return sqltypes.Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return sqltypes.Null, nil
			}
			// Fast path: the join and filter predicates of every PTLDB
			// query compare integers.
			if lv.T == sqltypes.Int64 && rv.T == sqltypes.Int64 {
				return boolVal(intCmp(op, lv.I, rv.I)), nil
			}
			c, err := sqltypes.Compare(lv, rv)
			if err != nil {
				return sqltypes.Null, err
			}
			return boolVal(intCmp(op, int64(c), 0)), nil
		}, nil
	case "-", "/":
		op := x.Op
		return func(row sqltypes.Row) (sqltypes.Value, error) {
			lv, err := l(row)
			if err != nil {
				return sqltypes.Null, err
			}
			rv, err := r(row)
			if err != nil {
				return sqltypes.Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return sqltypes.Null, nil
			}
			return arith(op, lv, rv)
		}, nil
	default:
		return nil, fmt.Errorf("exec: unknown operator %q", x.Op)
	}
}

func intCmp(op string, a, b int64) bool {
	switch op {
	case "=":
		return a == b
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	default:
		return a >= b
	}
}

// arith applies "-" or "/" with PostgreSQL-style typing: integer op integer
// stays integral (truncating division), anything involving a double is
// computed in doubles.
func arith(op string, l, r sqltypes.Value) (sqltypes.Value, error) {
	if l.T == sqltypes.Int64 && r.T == sqltypes.Int64 {
		if op == "-" {
			return sqltypes.NewInt(l.I - r.I), nil
		}
		if r.I == 0 {
			return sqltypes.Null, fmt.Errorf("exec: division by zero")
		}
		return sqltypes.NewInt(l.I / r.I), nil
	}
	a, err := l.AsFloat()
	if err != nil {
		return sqltypes.Null, fmt.Errorf("exec: %s on %s", op, l.T)
	}
	b, err := r.AsFloat()
	if err != nil {
		return sqltypes.Null, fmt.Errorf("exec: %s on %s", op, r.T)
	}
	if op == "-" {
		return sqltypes.NewFloat(a - b), nil
	}
	if b == 0 {
		return sqltypes.Null, fmt.Errorf("exec: division by zero")
	}
	return sqltypes.NewFloat(a / b), nil
}

// compileFunc compiles a scalar function call: FLOOR, the dialect's one.
func (ce *compileEnv) compileFunc(x *sql.FuncCall) (compiledExpr, error) {
	if x.Name != "FLOOR" {
		// UNNEST is set-returning; evalUnnest expands it where it may stand.
		return nil, fmt.Errorf("exec: %s is only allowed as a top-level select item", x.Name)
	}
	arg, err := ce.compile(x.Arg)
	if err != nil {
		return nil, err
	}
	return func(row sqltypes.Row) (sqltypes.Value, error) {
		v, err := arg(row)
		if err != nil {
			return sqltypes.Null, err
		}
		switch v.T {
		case sqltypes.NullType, sqltypes.Int64:
			return v, nil
		case sqltypes.Float64:
			return sqltypes.NewFloat(math.Floor(v.F)), nil
		default:
			return sqltypes.Null, fmt.Errorf("exec: FLOOR of %s", v.T)
		}
	}, nil
}

// --- AST inspection helpers -------------------------------------------------

// containsAggregate reports whether e contains an aggregate call anywhere.
func containsAggregate(e sql.Expr) bool {
	found := false
	walkExpr(e, func(x sql.Expr) {
		if fc, ok := x.(*sql.FuncCall); ok && aggregateFuncs[fc.Name] {
			found = true
		}
	})
	return found
}

// collectAggregates appends every aggregate call node in e to out.
func collectAggregates(e sql.Expr, out *[]*sql.FuncCall) {
	walkExpr(e, func(x sql.Expr) {
		if fc, ok := x.(*sql.FuncCall); ok && aggregateFuncs[fc.Name] {
			*out = append(*out, fc)
		}
	})
}

// containsUnnest reports whether e contains an UNNEST call.
func containsUnnest(e sql.Expr) bool {
	found := false
	walkExpr(e, func(x sql.Expr) {
		if fc, ok := x.(*sql.FuncCall); ok && fc.Name == "UNNEST" {
			found = true
		}
	})
	return found
}

// hasBareColumnRef reports whether e contains a column reference outside
// any aggregate call.
func hasBareColumnRef(e sql.Expr) bool {
	switch x := e.(type) {
	case *sql.ColumnRef:
		return true
	case *sql.BinaryOp:
		return hasBareColumnRef(x.L) || hasBareColumnRef(x.R)
	case *sql.FuncCall:
		return !aggregateFuncs[x.Name] && hasBareColumnRef(x.Arg)
	case *sql.ArraySlice:
		return hasBareColumnRef(x.A) || hasBareColumnRef(x.Lo) || hasBareColumnRef(x.Hi)
	default:
		return false
	}
}

// walkExpr visits e and all sub-expressions pre-order.
func walkExpr(e sql.Expr, fn func(sql.Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *sql.BinaryOp:
		walkExpr(x.L, fn)
		walkExpr(x.R, fn)
	case *sql.FuncCall:
		walkExpr(x.Arg, fn)
	case *sql.ArraySlice:
		walkExpr(x.A, fn)
		walkExpr(x.Lo, fn)
		walkExpr(x.Hi, fn)
	}
}

// truth interprets a value as a SQL boolean: (value, isNull).
func truth(v sqltypes.Value) (bool, bool) {
	switch v.T {
	case sqltypes.NullType:
		return false, true
	case sqltypes.Int64:
		return v.I != 0, false
	case sqltypes.Float64:
		return v.F != 0, false
	default:
		return false, true
	}
}

var (
	valTrue  = sqltypes.NewInt(1)
	valFalse = sqltypes.NewInt(0)
)

func boolVal(b bool) sqltypes.Value {
	if b {
		return valTrue
	}
	return valFalse
}

// defaultName derives the output column name of an unaliased select item.
func defaultName(e sql.Expr) string {
	switch x := e.(type) {
	case *sql.ColumnRef:
		return x.Column
	case *sql.FuncCall:
		return strings.ToLower(x.Name)
	default:
		return "?column?"
	}
}
