package sql

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *Select {
	t.Helper()
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return s
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT a.b, $2\n\t<= 3.5 <> x;")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokenKind{TokIdent, TokIdent, TokOp, TokIdent, TokOp, TokParam, TokOp, TokNumber, TokOp, TokIdent, TokOp, TokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d: %+v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d kind = %d, want %d (%+v)", i, toks[i].Kind, k, toks[i])
		}
	}
	if toks[5].Num != 2 || toks[5].Text != "$2" {
		t.Errorf("param = %+v", toks[5])
	}
	if toks[6].Text != "<=" || toks[8].Text != "<>" {
		t.Errorf("two-byte operators = %q, %q", toks[6].Text, toks[8].Text)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"'a string'", "$", "a ~ b", "a || b"} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) succeeded", src)
		}
	}
}

func TestParseSimpleSelect(t *testing.T) {
	s := mustParse(t, "SELECT v, hubs FROM lout WHERE v = $1")
	if s.Core == nil || len(s.Core.Items) != 2 || len(s.Core.From) != 1 {
		t.Fatalf("unexpected structure: %+v", s)
	}
	if s.Core.From[0].Table != "lout" {
		t.Errorf("table = %q", s.Core.From[0].Table)
	}
	w, ok := s.Core.Where.(*BinaryOp)
	if !ok || w.Op != "=" {
		t.Fatalf("where = %#v", s.Core.Where)
	}
	if _, ok := w.R.(*Param); !ok {
		t.Errorf("rhs = %#v", w.R)
	}
}

func TestParseAliases(t *testing.T) {
	s := mustParse(t, "SELECT v AS a, UNNEST(hubs) hub FROM lout l1")
	if s.Core.Items[0].Alias != "a" || s.Core.Items[1].Alias != "hub" {
		t.Errorf("aliases = %q, %q", s.Core.Items[0].Alias, s.Core.Items[1].Alias)
	}
	if s.Core.From[0].Alias != "l1" {
		t.Errorf("from alias = %q", s.Core.From[0].Alias)
	}
	fc, ok := s.Core.Items[1].Expr.(*FuncCall)
	if !ok || fc.Name != "UNNEST" {
		t.Errorf("func = %#v", s.Core.Items[1].Expr)
	}
}

func TestParseStars(t *testing.T) {
	s := mustParse(t, "SELECT n1bb.*, n1.ta AS n1_ta FROM n1bb, n1")
	if it := s.Core.Items[0]; it.Table != "n1bb" || it.Expr != nil {
		t.Errorf("item 0 = %+v", it)
	}
	if it := s.Core.Items[1]; it.Table != "" || it.Alias != "n1_ta" {
		t.Errorf("item 1 = %+v", it)
	}
}

// TestParseArraySliceAndIndex: the slice a[lo:hi] of Codes 2–4 parses; the
// subscript a[i], which no statement uses, is refused by name.
func TestParseArraySliceAndIndex(t *testing.T) {
	s := mustParse(t, "SELECT UNNEST(vs[1:$3]) AS v2 FROM t")
	fc := s.Core.Items[0].Expr.(*FuncCall)
	sl, ok := fc.Arg.(*ArraySlice)
	if !ok {
		t.Fatalf("arg = %#v", fc.Arg)
	}
	if _, ok := sl.Lo.(*IntLit); !ok {
		t.Errorf("slice lo = %#v", sl.Lo)
	}
	if _, ok := sl.Hi.(*Param); !ok {
		t.Errorf("slice hi = %#v", sl.Hi)
	}
	if _, err := Parse("SELECT tas[2] FROM t"); err == nil || !strings.Contains(err.Error(), "subscript") {
		t.Errorf("subscript: %v, want an error naming it", err)
	}
}

// TestParsePrecedence: AND binds loosest, then the one comparison, then "-",
// then "/"; "-" and "/" associate to the left.
func TestParsePrecedence(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t WHERE a = 1 AND b >= 2 AND c < 9 - 4 - 6 / 2")
	and, ok := s.Core.Where.(*BinaryOp)
	if !ok || and.Op != "AND" {
		t.Fatalf("top = %#v", s.Core.Where)
	}
	if inner := and.L.(*BinaryOp); inner.Op != "AND" || inner.L.(*BinaryOp).Op != "=" || inner.R.(*BinaryOp).Op != ">=" {
		t.Errorf("left = %#v", and.L)
	}
	lt := and.R.(*BinaryOp)
	if lt.Op != "<" {
		t.Fatalf("right = %#v", and.R)
	}
	minus := lt.R.(*BinaryOp) // (9 - 4) - (6 / 2)
	if minus.Op != "-" {
		t.Fatalf("rhs = %#v", lt.R)
	}
	if l := minus.L.(*BinaryOp); l.Op != "-" || l.L.(*IntLit).V != 9 {
		t.Errorf("9 - 4 = %#v", minus.L)
	}
	if div := minus.R.(*BinaryOp); div.Op != "/" {
		t.Errorf("6 / 2 = %#v", minus.R)
	}
}

func TestParseCTEsAndDerived(t *testing.T) {
	s := mustParse(t, `
WITH outp AS (SELECT UNNEST(hubs) AS hub FROM lout WHERE v=$1),
     inp AS (SELECT UNNEST(hubs) AS hub FROM lin WHERE v=$2)
SELECT MIN(inp.ta) FROM outp, inp WHERE outp.hub = inp.hub`)
	if len(s.With) != 2 || s.With[0].Name != "outp" || s.With[1].Name != "inp" {
		t.Fatalf("ctes = %+v", s.With)
	}
	if len(s.Core.From) != 2 {
		t.Fatalf("from = %+v", s.Core.From)
	}
}

func TestParseUnionWithInnerOrderLimit(t *testing.T) {
	s := mustParse(t, `
SELECT v2, MIN(ta) FROM (
  (SELECT v2, MIN(ta) AS ta FROM a GROUP BY v2 ORDER BY MIN(ta), v2 LIMIT $4)
  UNION
  (SELECT v2, MIN(ta) AS ta FROM b GROUP BY v2 ORDER BY MIN(ta), v2 LIMIT $4)
) S53
GROUP BY v2 ORDER BY MIN(ta), v2 LIMIT $4`)
	sub := s.Core.From[0].Subquery
	if sub == nil || len(sub.Arms) != 2 {
		t.Fatalf("subquery arms = %+v", sub)
	}
	if sub.Arms[0].OrderBy == nil || sub.Arms[0].Limit == nil {
		t.Errorf("inner arm lost its ORDER BY/LIMIT: %+v", sub.Arms[0])
	}
	if len(sub.All) != 1 || sub.All[0] {
		t.Errorf("UNION wrongly parsed as UNION ALL")
	}
	if s.OrderBy == nil || s.Limit == nil {
		t.Errorf("outer ORDER BY/LIMIT missing")
	}
	if s.Core.From[0].Alias != "S53" {
		t.Errorf("derived alias = %q", s.Core.From[0].Alias)
	}
}

func TestParseUnionAll(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t UNION ALL SELECT a FROM u UNION SELECT a FROM w")
	if len(s.Arms) != 3 || len(s.All) != 2 {
		t.Fatalf("arms = %d, all = %v", len(s.Arms), s.All)
	}
	if !s.All[0] || s.All[1] {
		t.Errorf("ALL flags = %v", s.All)
	}
}

func TestParseOrderDesc(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t ORDER BY MAX(b) DESC, a")
	if len(s.OrderBy) != 2 || !s.OrderBy[0].Desc || s.OrderBy[1].Desc {
		t.Fatalf("order = %+v", s.OrderBy)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT a FROM",
		"SELECT a FROM (SELECT a FROM t)", // derived table without alias
		"SELECT a WHERE",
		"WITH x AS SELECT a FROM t SELECT a FROM x", // missing parens
		"SELECT a FROM t ORDER",                     // incomplete
		"SELECT a FROM t; SELECT b FROM t",          // trailing statement
		"SELECT MIN(a FROM t",                       // unbalanced
		"SELECT a[1:2 FROM t",                       // unbalanced bracket
		"SELECT MIN(a, b) FROM t",                   // every function takes one argument
		"SELECT COUNT(a) FROM t",                    // COUNT counts rows
		"SELECT a FROM t WHERE a = b = c",           // one comparison per conjunct
		"SELECT $0 FROM t",                          // param index 0
		"SELECT 1.2.3 FROM t",                       // bad number
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

// TestParsePaperCode1 parses the paper's Code 1 (EA variant) verbatim except
// for parameter placeholders.
func TestParsePaperCode1(t *testing.T) {
	s := mustParse(t, `
WITH outp AS
  (SELECT UNNEST(hubs) AS hub,
          UNNEST(tds) AS td,
          UNNEST(tas) AS ta
   FROM lout WHERE v=$1),
inp AS
  (SELECT UNNEST(hubs) AS hub,
          UNNEST(tds) AS td,
          UNNEST(tas) AS ta
   FROM lin WHERE v=$2)
SELECT MIN(inp.ta)
FROM outp,
     inp
WHERE outp.hub=inp.hub AND outp.ta<=inp.td
  AND outp.td>=$3`)
	if len(s.With) != 2 || s.Core == nil {
		t.Fatalf("structure: %+v", s)
	}
}

// TestParsePaperCode3 parses the paper's Code 3 (EA-kNN variant) verbatim.
func TestParsePaperCode3(t *testing.T) {
	s := mustParse(t, `
WITH n1 AS
  (SELECT v, hub, td, ta
   FROM
     (SELECT v,
             UNNEST(hubs) AS hub,
             UNNEST(tds) AS td,
             UNNEST(tas) AS ta
      FROM lout
      WHERE v=$1) n1a
   WHERE td >=$2),
    n1b AS
  (SELECT n1bb.*,
          n1.ta AS n1_ta,
          n1.td AS n1_td
   FROM knn_ea n1bb,n1
   WHERE n1bb.hub=n1.hub
     AND n1bb.dephour=FLOOR(n1.ta/3600))
SELECT v2,MIN(ta)
FROM (
      (SELECT v2, MIN(n3.ta) AS ta
       FROM
          (SELECT
          UNNEST(tas[1:$3]) AS ta,
          UNNEST(vs[1:$3]) AS v2
          FROM n1b) n3
       GROUP BY v2
       ORDER BY MIN(n3.ta), v2
       LIMIT $3
       )
    UNION
      (SELECT n2.v2,MIN(n2.ta) AS ta
       FROM
          (SELECT n1_ta,
                  UNNEST(tds_exp) AS td,
                  UNNEST(vs_exp) AS v2,
                  UNNEST(tas_exp) AS ta
          FROM n1b) n2
       WHERE n1_ta <= n2.td
       GROUP BY n2.v2
       ORDER BY MIN(n2.ta),v2
       LIMIT $3
       )) S53
GROUP BY v2
ORDER BY MIN(ta), v2
LIMIT $3;`)
	if len(s.With) != 2 {
		t.Fatalf("ctes: %d", len(s.With))
	}
	if s.With[1].Query.Core.Items[0].Table != "n1bb" {
		t.Errorf("n1bb.* not parsed: %+v", s.With[1].Query.Core.Items[0])
	}
	if s.Core.From[0].Subquery == nil || len(s.Core.From[0].Subquery.Arms) != 2 {
		t.Fatalf("union structure: %+v", s.Core.From[0])
	}
}
