package sql

// Expr is any scalar (or, for Unnest, set-returning) expression.
type Expr interface{ isExpr() }

// ColumnRef names a column, optionally qualified: Table may be empty.
type ColumnRef struct {
	Table  string
	Column string
}

// IntLit is an integer literal.
type IntLit struct{ V int64 }

// FloatLit is a decimal literal.
type FloatLit struct{ V float64 }

// Param is a positional parameter $N (1-based).
type Param struct{ N int }

// BinaryOp applies Op ("=", "<", "<=", ">", ">=", "-", "/", "AND") to two
// operands.
type BinaryOp struct {
	Op   string
	L, R Expr
}

// FuncCall is a function or aggregate application: MIN, MAX, FLOOR or UNNEST
// of Arg, or COUNT(*), whose Arg is nil.
type FuncCall struct {
	Name string // upper-cased
	Arg  Expr
}

// ArraySlice is a 1-based inclusive slice: A[Lo:Hi].
type ArraySlice struct {
	A, Lo, Hi Expr
}

func (*ColumnRef) isExpr()  {}
func (*IntLit) isExpr()     {}
func (*FloatLit) isExpr()   {}
func (*Param) isExpr()      {}
func (*BinaryOp) isExpr()   {}
func (*FuncCall) isExpr()   {}
func (*ArraySlice) isExpr() {}

// SelectItem is one element of the SELECT list: an expression with an
// optional alias, or — Table set, Expr nil — `tbl.*`.
type SelectItem struct {
	Expr  Expr
	Alias string
	Table string
}

// FromItem is one element of the FROM list: either a named table (CTE or
// base table) or a derived subquery; Alias may rename it.
type FromItem struct {
	Table    string
	Subquery *Select
	Alias    string
}

// OrderItem is one ORDER BY element.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectCore is a single SELECT ... FROM ... WHERE ... GROUP BY block.
type SelectCore struct {
	Items   []SelectItem
	From    []FromItem
	Where   Expr
	GroupBy []Expr
}

// Select is a full select statement: either a simple core with an optional
// trailing ORDER BY / LIMIT, or a UNION chain of arms (each arm a full Select,
// since PostgreSQL allows parenthesized arms with their own ORDER BY / LIMIT —
// the form the paper's Codes 3 and 4 use).
type Select struct {
	With []CTE
	// Exactly one of Core / Arms is set.
	Core *SelectCore
	Arms []*Select
	// All is parallel to Arms[1:]: All[i] reports whether the i-th UNION
	// keyword was UNION ALL.
	All     []bool
	OrderBy []OrderItem
	Limit   Expr
}

// CTE is one WITH element: name AS (select).
type CTE struct {
	Name  string
	Query *Select
}
