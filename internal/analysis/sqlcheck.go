package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"strconv"
	"strings"

	"ptldb/internal/sqldb/exec"
	"ptldb/internal/sqldb/sql"
)

// sqlCheck parses, at lint time, every string constant that reaches a SQL
// entry point, using the engine's own parser — the SQL dialect of the
// paper's Codes 1–4 is part of the project's contract and must never drift
// into text that only fails at runtime.
//
// Entry points are recognized by callee name:
//
//   - Query, QueryTraced, Prepare, CachedPrepare: the first argument must
//     parse as a SELECT (sql.Parse).
//   - prepared (core's plan-cache helper): the first argument must parse as
//     a SELECT and additionally compile with exec.Fuse. Fuse recognizes the
//     ten texts of exec/codes.go and nothing else, so "must fuse" means "is
//     one of them, with a table name in each table verb and a positive width
//     in the bucket verb": a statement written out beside them, or one whose
//     text drifted (a renamed alias, a reordered conjunct), fails the lint
//     gate instead of silently running every query on the general executor.
//
// Arguments are resolved to text when they are string constants, or
// fmt.Sprintf calls of a string constant. Printf-style table-name and
// bucket-width verbs (%s, %d, %[n]s, %[n]d) are substituted with
// placeholder identifiers and a positive integer literal before parsing,
// matching how core interpolates table names at statement-build time.
// Dynamic (non-constant) SQL is out of lint scope.
type sqlCheck struct{}

// NewSQLCheck returns the sqlcheck checker.
func NewSQLCheck() Checker { return sqlCheck{} }

func (sqlCheck) Name() string { return "sqlcheck" }

// sqlParseSinks require the first argument to parse as a SELECT;
// sqlFusedSinks must also fuse.
var (
	sqlParseSinks = map[string]bool{"Query": true, "QueryTraced": true, "Prepare": true, "CachedPrepare": true, "prepared": true}
	sqlFusedSinks = map[string]bool{"prepared": true}
)

func (c sqlCheck) Check(p *Package) []Finding {
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := calleeName(call)
			if !sqlParseSinks[name] || len(call.Args) == 0 {
				return true
			}
			arg := ast.Unparen(call.Args[0])
			text, ok := c.constantText(p, arg)
			if !ok {
				return true
			}
			pos := p.Fset.Position(arg.Pos())
			subst, err := substFormatVerbs(text)
			if err != nil {
				out = append(out, Finding{pos, c.Name(),
					fmt.Sprintf("SQL constant passed to %s: %v", name, err)})
				return true
			}
			sel, err := sql.Parse(subst)
			if err != nil {
				out = append(out, Finding{pos, c.Name(),
					fmt.Sprintf("SQL constant passed to %s does not parse: %v", name, err)})
				return true
			}
			if sqlFusedSinks[name] && exec.Fuse(sel) == nil {
				out = append(out, Finding{pos, c.Name(),
					fmt.Sprintf("statement passed to %s does not compile to a fused plan: it is not one of the texts of exec/codes.go, and every execution would run on the general executor", name)})
			}
			return true
		})
	}
	return out
}

// constantText resolves e to compile-time SQL text: a string constant, or a
// fmt.Sprintf whose format argument is a string constant.
func (sqlCheck) constantText(p *Package, e ast.Expr) (string, bool) {
	if tv, ok := p.Info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value), true
	}
	call, ok := e.(*ast.CallExpr)
	if !ok || calleeName(call) != "Sprintf" || len(call.Args) == 0 {
		return "", false
	}
	tv, ok := p.Info.Types[ast.Unparen(call.Args[0])]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// substFormatVerbs rewrites the printf verbs the project uses for statement
// building into parseable SQL: %s and %[n]s become placeholder table
// identifiers (distinct per index), %d and %[n]d become a positive integer
// literal (the bucket width). Any other verb is an error: the linter cannot
// prove such a statement parses, so the project convention is to stick to
// s/d interpolation.
func substFormatVerbs(format string) (string, error) {
	var b strings.Builder
	b.Grow(len(format))
	seq := 0
	for i := 0; i < len(format); i++ {
		ch := format[i]
		if ch != '%' {
			b.WriteByte(ch)
			continue
		}
		i++
		if i >= len(format) {
			return "", fmt.Errorf("format string ends mid-verb")
		}
		idx := 0
		if format[i] == '[' {
			j := strings.IndexByte(format[i:], ']')
			if j < 0 {
				return "", fmt.Errorf("unterminated [n] index in format string")
			}
			n, err := strconv.Atoi(format[i+1 : i+j])
			if err != nil {
				return "", fmt.Errorf("bad [n] index in format string: %v", err)
			}
			idx = n
			i += j + 1
			if i >= len(format) {
				return "", fmt.Errorf("format string ends mid-verb")
			}
		}
		switch format[i] {
		case '%':
			b.WriteByte('%')
		case 's':
			if idx == 0 {
				seq++
				idx = seq
			}
			fmt.Fprintf(&b, "ptlint_t%d", idx)
		case 'd':
			b.WriteString("3600")
		default:
			return "", fmt.Errorf("unsupported format verb %%%c (only %%s and %%d interpolate into lint-checkable SQL)", format[i])
		}
	}
	return b.String(), nil
}
