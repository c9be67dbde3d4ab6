package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses one SELECT statement of the dialect (DESIGN.md §3.4),
// optionally terminated by a semicolon. The grammar is what the ten
// statements of exec/codes.go are written in; a construct outside it — OR,
// NOT, CASE, IN, BETWEEN, HAVING, +, *, <>, a subscript, a comment — has no
// production, so the statement fails at the token that spells it.
func Parse(src string) (*Select, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	p.acceptOp(";")
	if p.peek().Kind != TokEOF {
		return nil, p.outside("unexpected token")
	}
	return sel, nil
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) peek() Token { return p.toks[p.pos] }
func (p *parser) errf(format string, args ...any) error {
	t := p.peek()
	where := t.Text
	if t.Kind == TokEOF {
		where = "end of input"
	}
	return fmt.Errorf("sql: %s near %q (offset %d)", fmt.Sprintf(format, args...), where, t.Pos)
}

// outside is the error for a construct the dialect lacks. Most have no
// production at all and are refused as an unexpected token, by the name they
// were spelled with.
func (p *parser) outside(what string) error {
	return p.errf("not in the dialect (DESIGN.md §3.4): %s", what)
}

// acceptKw consumes an identifier token matching kw case-insensitively.
func (p *parser) acceptKw(kw string) bool {
	t := p.peek()
	if t.Kind == TokIdent && strings.EqualFold(t.Text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %s", kw)
	}
	return nil
}

func (p *parser) acceptOp(op string) bool {
	t := p.peek()
	if t.Kind == TokOp && t.Text == op {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errf("expected %q", op)
	}
	return nil
}

// parseSelect parses [WITH ...] followed by either one bare core with its
// [ORDER BY ...] [LIMIT ...], or a UNION chain of arms.
func (p *parser) parseSelect() (*Select, error) {
	sel := &Select{}
	if p.acceptKw("WITH") {
		for {
			name, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("AS"); err != nil {
				return nil, err
			}
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			q, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			sel.With = append(sel.With, CTE{Name: name, Query: q})
			if !p.acceptOp(",") {
				break
			}
		}
	}

	first, err := p.parseArm()
	if err != nil {
		return nil, err
	}
	arms := []*Select{first}
	var all []bool
	for p.acceptKw("UNION") {
		isAll := p.acceptKw("ALL")
		arm, err := p.parseArm()
		if err != nil {
			return nil, err
		}
		arms = append(arms, arm)
		all = append(all, isAll)
	}
	if len(arms) > 1 || first.With != nil || first.Core == nil || first.OrderBy != nil || first.Limit != nil {
		// Each arm carries its own ORDER BY / LIMIT inside its parentheses,
		// as in Codes 3 and 4; the set operation takes none, so one that
		// follows is the caller's unexpected token.
		sel.Arms, sel.All = arms, all
		return sel, nil
	}
	sel.Core = first.Core

	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.OrderBy = append(sel.OrderBy, OrderItem{Expr: e, Desc: p.acceptKw("DESC")})
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKw("LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Limit = e
	}
	return sel, nil
}

// parseArm parses one UNION arm: a bare SELECT core or a parenthesized full
// select.
func (p *parser) parseArm() (*Select, error) {
	if p.acceptOp("(") {
		s, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return s, nil
	}
	core, err := p.parseCore()
	if err != nil {
		return nil, err
	}
	return &Select{Core: core}, nil
}

func (p *parser) parseCore() (*SelectCore, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	core := &SelectCore{}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		core.Items = append(core.Items, item)
		if !p.acceptOp(",") {
			break
		}
	}
	if !p.acceptKw("FROM") {
		return nil, p.outside("expected FROM, there is no SELECT without FROM,")
	}
	for {
		fi, err := p.parseFromItem()
		if err != nil {
			return nil, err
		}
		core.From = append(core.From, fi)
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		core.Where = e
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			core.GroupBy = append(core.GroupBy, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	return core, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	// tbl.* form: identifier '.' '*'.
	if t := p.peek(); t.Kind == TokIdent && p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].Kind == TokOp && p.toks[p.pos+1].Text == "." &&
		p.toks[p.pos+2].Kind == TokOp && p.toks[p.pos+2].Text == "*" {
		p.pos += 3
		return SelectItem{Table: t.Text}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	alias, err := p.parseAlias()
	return SelectItem{Expr: e, Alias: alias}, err
}

func (p *parser) parseFromItem() (FromItem, error) {
	var fi FromItem
	if p.acceptOp("(") {
		q, err := p.parseSelect()
		if err != nil {
			return fi, err
		}
		if err := p.expectOp(")"); err != nil {
			return fi, err
		}
		fi.Subquery = q
	} else {
		name, err := p.parseIdent()
		if err != nil {
			return fi, err
		}
		fi.Table = name
	}
	alias, err := p.parseAlias()
	if err != nil {
		return fi, err
	}
	fi.Alias = alias
	if fi.Subquery != nil && fi.Alias == "" {
		return fi, p.errf("derived table requires an alias")
	}
	return fi, nil
}

// parseAlias parses the optional [AS] name after a select or FROM item.
func (p *parser) parseAlias() (string, error) {
	if p.acceptKw("AS") {
		return p.parseIdent()
	}
	if t := p.peek(); t.Kind == TokIdent && !isReserved(t.Text) {
		p.pos++
		return t.Text, nil
	}
	return "", nil
}

func (p *parser) parseIdent() (string, error) {
	t := p.peek()
	if t.Kind != TokIdent || isReserved(t.Text) {
		return "", p.errf("expected identifier")
	}
	p.pos++
	return t.Text, nil
}

// isReserved lists keywords that terminate implicit aliases and identifier
// positions — PostgreSQL's, so that a statement using one the dialect lacks
// fails at that word and not at what follows it.
func isReserved(s string) bool {
	switch strings.ToUpper(s) {
	case "SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "LIMIT", "UNION",
		"ALL", "AS", "AND", "OR", "NOT", "ASC", "DESC", "WITH", "ON", "NULL",
		"DISTINCT", "HAVING", "JOIN", "INNER", "LEFT", "RIGHT", "CROSS", "IN",
		"BETWEEN", "CASE", "WHEN", "THEN", "ELSE", "END", "IS":
		return true
	}
	return false
}

// --- expressions -----------------------------------------------------------

// parseExpr parses the four binary levels of the dialect, loosest first: AND,
// one comparison, "-", "/".
func (p *parser) parseExpr() (Expr, error) {
	return p.parseChain(p.parseComparison, p.acceptKw, "AND")
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.Kind == TokOp {
		switch t.Text {
		case "=", "<", "<=", ">", ">=":
			p.pos++
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryOp{Op: t.Text, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	return p.parseChain(p.parseMultiplicative, p.acceptOp, "-")
}

func (p *parser) parseMultiplicative() (Expr, error) {
	return p.parseChain(p.parsePostfix, p.acceptOp, "/")
}

// parseChain parses operand {op operand}, left-associative.
func (p *parser) parseChain(operand func() (Expr, error), accept func(string) bool, op string) (Expr, error) {
	l, err := operand()
	if err != nil {
		return nil, err
	}
	for accept(op) {
		r, err := operand()
		if err != nil {
			return nil, err
		}
		l = &BinaryOp{Op: op, L: l, R: r}
	}
	return l, nil
}

// parsePostfix parses a primary followed by array slices.
func (p *parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.acceptOp("[") {
		lo, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if !p.acceptOp(":") {
			return nil, p.outside("array subscript; only the slice a[lo:hi] is, expected \":\"")
		}
		hi, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("]"); err != nil {
			return nil, err
		}
		e = &ArraySlice{A: e, Lo: lo, Hi: hi}
	}
	return e, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.pos++
		if strings.Contains(t.Text, ".") {
			v, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.Text)
			}
			return &FloatLit{V: v}, nil
		}
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.Text)
		}
		return &IntLit{V: v}, nil
	case TokParam:
		p.pos++
		if t.Num < 1 {
			return nil, p.errf("parameter index must be >= 1")
		}
		return &Param{N: t.Num}, nil
	case TokIdent:
		if isReserved(t.Text) {
			return nil, p.outside("unexpected token")
		}
		p.pos++
		if p.acceptOp("(") {
			return p.parseCall(strings.ToUpper(t.Text))
		}
		if p.acceptOp(".") {
			col, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: t.Text, Column: col}, nil
		}
		return &ColumnRef{Column: t.Text}, nil
	default:
		return nil, p.outside("unexpected token")
	}
}

// parseCall parses the rest of a call to name, whose "(" is consumed: the
// dialect has COUNT(*) and four functions of one argument.
func (p *parser) parseCall(name string) (Expr, error) {
	fc := &FuncCall{Name: name}
	switch name {
	case "COUNT":
		if err := p.expectOp("*"); err != nil {
			return nil, err
		}
	case "MIN", "MAX", "FLOOR", "UNNEST":
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fc.Arg = arg
	default:
		return nil, p.outside("function " + name)
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return fc, nil
}
