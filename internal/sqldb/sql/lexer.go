// Package sql contains the lexer, AST and recursive-descent parser for the
// SQL dialect of the embedded PTLDB database engine: what the paper's query
// Codes 1–4 are written in and nothing else — SELECT with CTEs (WITH),
// derived tables, comma joins, UNNEST over array columns and array slices,
// MIN / MAX / COUNT(*), FLOOR, GROUP BY, ORDER BY [DESC], LIMIT, UNION [ALL]
// of parenthesized arms and positional parameters ($1, $2, …). DESIGN.md §3.4
// has the grammar. Anything else is a parse error that names what it met.
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind classifies lexer output.
type TokenKind uint8

const (
	// TokEOF terminates the token stream.
	TokEOF TokenKind = iota
	// TokIdent is an identifier or keyword (keywords are matched
	// case-insensitively by the parser).
	TokIdent
	// TokNumber is an integer or decimal literal.
	TokNumber
	// TokParam is a positional parameter; Num holds its 1-based index.
	TokParam
	// TokOp is an operator or punctuation symbol.
	TokOp
)

// Token is one lexical element.
type Token struct {
	Kind TokenKind
	Text string // identifier, operator symbol or literal text
	Num  int    // parameter index for TokParam
	Pos  int    // byte offset in the input, for error messages
}

// Lex tokenizes a SQL string. The dialect has no comments and no string
// literals.
func Lex(src string) ([]Token, error) {
	var toks []Token
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case isIdentStart(rune(c)):
			start := i
			for i < n && isIdentPart(rune(src[i])) {
				i++
			}
			toks = append(toks, Token{Kind: TokIdent, Text: src[start:i], Pos: start})
		case c >= '0' && c <= '9':
			start := i
			for i < n && (src[i] >= '0' && src[i] <= '9' || src[i] == '.') {
				i++
			}
			toks = append(toks, Token{Kind: TokNumber, Text: src[start:i], Pos: start})
		case c == '\'':
			return nil, fmt.Errorf("sql: string literal at offset %d: not in the dialect (DESIGN.md §3.4)", i)
		case c == '$':
			start := i
			i++
			num := 0
			for i < n && src[i] >= '0' && src[i] <= '9' {
				num = num*10 + int(src[i]-'0')
				i++
			}
			if i == start+1 {
				return nil, fmt.Errorf("sql: bare $ at offset %d", start)
			}
			toks = append(toks, Token{Kind: TokParam, Text: src[start:i], Num: num, Pos: start})
		default:
			start := i
			// Multi-byte operators first; <> and != are lexed so that the
			// parser's refusal names them whole.
			for _, op := range []string{"<=", ">=", "<>", "!="} {
				if strings.HasPrefix(src[i:], op) {
					toks = append(toks, Token{Kind: TokOp, Text: op, Pos: start})
					i += len(op)
					goto next
				}
			}
			switch c {
			case '=', '<', '>', '+', '-', '*', '/', '%', '(', ')', ',', '.', '[', ']', ':', ';':
				toks = append(toks, Token{Kind: TokOp, Text: string(c), Pos: start})
				i++
			default:
				return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, i)
			}
		next:
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Pos: n})
	return toks, nil
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
