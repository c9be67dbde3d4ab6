package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses one SELECT statement (optionally terminated by a semicolon).
func Parse(src string) (*Select, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	p.acceptOp(";")
	if p.peek().Kind != TokEOF {
		return nil, p.errf("trailing input")
	}
	return sel, nil
}

type parser struct {
	toks []Token
	pos  int
	src  string
}

func (p *parser) peek() Token { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) errf(format string, args ...any) error {
	t := p.peek()
	where := t.Text
	if t.Kind == TokEOF {
		where = "end of input"
	}
	return fmt.Errorf("sql: %s near %q (offset %d)", fmt.Sprintf(format, args...), where, t.Pos)
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

// parseSelect parses [WITH ...] armChain [ORDER BY ...] [LIMIT ...].
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
	if len(arms) == 1 && first.With == nil && first.Core != nil &&
		first.OrderBy == nil && first.Limit == nil {
		sel.Core = first.Core
	} else if len(arms) == 1 && sel.With == nil {
		// A single parenthesized arm: unwrap, hoisting nothing.
		*sel = *first
	} else {
		sel.Arms = arms
		sel.All = all
	}

	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKw("DESC") {
				item.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
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
	p.acceptKw("DISTINCT") // treated via GROUP BY by callers; accepted for friendliness
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
	if p.acceptKw("FROM") {
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
	if p.acceptKw("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		core.Having = e
	}
	return core, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.acceptOp("*") {
		return SelectItem{Star: true}, nil
	}
	// tbl.* form: identifier '.' '*'.
	if p.peek().Kind == TokIdent && p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].Kind == TokOp && p.toks[p.pos+1].Text == "." &&
		p.toks[p.pos+2].Kind == TokOp && p.toks[p.pos+2].Text == "*" {
		tbl := p.next().Text
		p.next()
		p.next()
		return SelectItem{Star: true, Table: tbl}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKw("AS") {
		a, err := p.parseIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if t := p.peek(); t.Kind == TokIdent && !isReserved(t.Text) {
		item.Alias = p.next().Text
	}
	return item, nil
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
	if p.acceptKw("AS") {
		a, err := p.parseIdent()
		if err != nil {
			return fi, err
		}
		fi.Alias = a
	} else if t := p.peek(); t.Kind == TokIdent && !isReserved(t.Text) {
		fi.Alias = p.next().Text
	}
	if fi.Subquery != nil && fi.Alias == "" {
		return fi, p.errf("derived table requires an alias")
	}
	return fi, nil
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
// positions.
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

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryOp{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryOp{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKw("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryOp{Op: "NOT", E: e}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		// expr IN (a, b, ...) desugars to a disjunction of equalities;
		// expr BETWEEN a AND b to a conjunction of bounds.
		if p.acceptKw("IN") {
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			var alt Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				eq := Expr(&BinaryOp{Op: "=", L: l, R: e})
				if alt == nil {
					alt = eq
				} else {
					alt = &BinaryOp{Op: "OR", L: alt, R: eq}
				}
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			l = alt
			continue
		}
		if p.acceptKw("BETWEEN") {
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &BinaryOp{Op: "AND",
				L: &BinaryOp{Op: ">=", L: l, R: lo},
				R: &BinaryOp{Op: "<=", L: l, R: hi}}
			continue
		}
		t := p.peek()
		if t.Kind != TokOp {
			return l, nil
		}
		switch t.Text {
		case "=", "<", "<=", ">", ">=", "<>", "!=":
			op := t.Text
			if op == "!=" {
				op = "<>"
			}
			p.pos++
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &BinaryOp{Op: op, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("+"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &BinaryOp{Op: "+", L: l, R: r}
		case p.acceptOp("-"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &BinaryOp{Op: "-", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinaryOp{Op: "*", L: l, R: r}
		case p.acceptOp("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinaryOp{Op: "/", L: l, R: r}
		case p.acceptOp("%"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinaryOp{Op: "%", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptOp("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryOp{Op: "-", E: e}, nil
	}
	return p.parsePostfix()
}

// parsePostfix parses a primary followed by array subscripts/slices.
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
		if p.acceptOp(":") {
			hi, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			e = &ArraySlice{A: e, Lo: lo, Hi: hi}
		} else {
			e = &ArrayIndex{A: e, I: lo}
		}
		if err := p.expectOp("]"); err != nil {
			return nil, err
		}
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
	case TokString:
		p.pos++
		return &StringLit{V: t.Text}, nil
	case TokParam:
		p.pos++
		if t.Num < 1 {
			return nil, p.errf("parameter index must be >= 1")
		}
		return &Param{N: t.Num}, nil
	case TokOp:
		if t.Text == "(" {
			p.pos++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errf("unexpected token")
	case TokIdent:
		if strings.EqualFold(t.Text, "NULL") {
			p.pos++
			return &NullLit{}, nil
		}
		if strings.EqualFold(t.Text, "CASE") {
			p.pos++
			ce := &CaseExpr{}
			for p.acceptKw("WHEN") {
				cond, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if err := p.expectKw("THEN"); err != nil {
					return nil, err
				}
				then, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				ce.Whens = append(ce.Whens, CaseWhen{Cond: cond, Then: then})
			}
			if len(ce.Whens) == 0 {
				return nil, p.errf("CASE requires at least one WHEN arm")
			}
			if p.acceptKw("ELSE") {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				ce.Else = e
			}
			if err := p.expectKw("END"); err != nil {
				return nil, err
			}
			return ce, nil
		}
		if isReserved(t.Text) {
			return nil, p.errf("unexpected keyword")
		}
		p.pos++
		// Function call?
		if p.acceptOp("(") {
			fc := &FuncCall{Name: strings.ToUpper(t.Text)}
			if p.acceptOp("*") {
				fc.Star = true
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return fc, nil
			}
			if !p.acceptOp(")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fc.Args = append(fc.Args, a)
					if !p.acceptOp(",") {
						break
					}
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
			}
			return fc, nil
		}
		// Qualified column?
		if p.acceptOp(".") {
			col, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: t.Text, Column: col}, nil
		}
		return &ColumnRef{Column: t.Text}, nil
	default:
		return nil, p.errf("unexpected token")
	}
}
