package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strings"
	"testing"
)

// parseBody parses src as a function body and returns its CFG plus the fset
// for position lookups.
func parseBody(t *testing.T, body string) (*CFG, *token.FileSet) {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fd := file.Decls[0].(*ast.FuncDecl)
	return NewCFG(fd.Body), fset
}

// reachableAssigns walks the CFG from the entry and collects the left-hand
// identifiers of every reachable assignment, in a breadth-first order — a
// compact fingerprint of which statements the graph considers live and how
// they chain.
func reachableAssigns(g *CFG) []string {
	var out []string
	seen := map[*Block]bool{}
	queue := []*Block{g.Blocks[0]}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		if seen[b] {
			continue
		}
		seen[b] = true
		out = append(out, blockAssigns(b)...)
		queue = append(queue, b.Succs...)
	}
	return out
}

// blockAssigns returns the left-hand identifiers of b's assignments.
func blockAssigns(b *Block) []string {
	var out []string
	for _, n := range b.Nodes {
		if as, ok := n.(*ast.AssignStmt); ok {
			if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
				out = append(out, id.Name)
			}
		}
	}
	return out
}

func TestCFGBranchesAndLoops(t *testing.T) {
	tests := []struct {
		name string
		body string
		want string // space-joined reachable assignment targets (BFS order)
	}{
		{
			name: "straight line",
			body: "a := 1\nb := 2",
			want: "a b",
		},
		{
			name: "if both arms reachable",
			body: "a := 1\nif a > 0 {\n\tb := 2\n\t_ = b\n} else {\n\tc := 3\n\t_ = c\n}\nd := 4\n_ = d",
			want: "a b c d",
		},
		{
			name: "code after return is unreachable",
			body: "a := 1\n_ = a\nreturn\nb := 2\n_ = b",
			want: "a",
		},
		{
			name: "return inside one arm still reaches the join from the other",
			body: "a := 1\nif a > 0 {\n\treturn\n}\nb := 2\n_ = b",
			want: "a b",
		},
		{
			name: "for body and after-loop both reachable",
			body: "a := 1\nfor i := 0; i < a; i++ {\n\tb := 2\n\t_ = b\n}\nc := 3\n_ = c",
			want: "a i b c",
		},
		{
			name: "condition-less loop exits only via break",
			body: "for {\n\ta := 1\n\t_ = a\n\tif a > 0 {\n\t\tbreak\n\t}\n}\nb := 2\n_ = b",
			want: "a b",
		},
		{
			name: "range loop",
			body: "xs := []int{1}\nfor _, v := range xs {\n\t_ = v\n}\ny := 2\n_ = y",
			want: "xs y",
		},
		{
			name: "switch clauses fan out and rejoin",
			body: "a := 1\nswitch a {\ncase 1:\n\tb := 2\n\t_ = b\ncase 2:\n\tc := 3\n\t_ = c\n}\nd := 4\n_ = d",
			want: "a b c d",
		},
		{
			name: "labeled continue targets the outer loop",
			body: "outer:\nfor i := 0; i < 3; i++ {\n\tfor j := 0; j < 3; j++ {\n\t\tcontinue outer\n\t\ta := 1\n\t\t_ = a\n\t}\n}\nb := 2\n_ = b",
			want: "i j b",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			g, _ := parseBody(t, tc.body)
			got := strings.Join(reachableAssigns(g), " ")
			if got != tc.want {
				t.Errorf("reachable assigns = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestForwardReachingFact solves a tiny forward problem — "has the marker
// assignment executed on every path into this block?" — over a diamond with
// the marker on only one arm, checking both the merge (must-style via AND)
// and the fixpoint around a loop.
func TestForwardReachingFact(t *testing.T) {
	g, _ := parseBody(t, `
a := 0
if a > 0 {
	a = 1
} else {
	_ = a
}
b := a
_ = b
`)
	marked := func(b *Block, in bool) bool {
		out := in
		for _, n := range b.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN {
				// The marker: the plain "a = 1" on one arm (not "_ = a").
				if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name == "a" {
					out = true
				}
			}
		}
		return out
	}
	and := func(x, y bool) bool { return x && y }
	eq := func(x, y bool) bool { return x == y }
	facts := Forward(g, false, and, marked, eq)

	// The join block (the one holding "b := a") merges a marked arm with an
	// unmarked one, so under AND its entry fact must be false.
	var joinFact, sawJoin bool
	for b, f := range facts {
		for _, n := range b.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok {
				if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name == "b" {
					joinFact, sawJoin = f, true
				}
			}
		}
	}
	if !sawJoin {
		t.Fatal("no block holds the join assignment b := a")
	}
	if joinFact {
		t.Error("join entry fact = true; AND-merge over a half-marked diamond must yield false")
	}

	// Every reachable block must have a fact; the unreachable-block map must
	// not grow past the block list.
	if len(facts) > len(g.Blocks) {
		t.Errorf("facts for %d blocks, graph has %d", len(facts), len(g.Blocks))
	}
}

// TestForwardLoopFixpoint proves termination and soundness around a cycle: a
// may-style OR problem where the marker sits inside the loop body, so the
// loop head's entry fact flips to true on the second visit.
func TestForwardLoopFixpoint(t *testing.T) {
	g, _ := parseBody(t, `
a := 0
for i := 0; i < 3; i++ {
	a = 1
}
_ = a
`)
	marked := func(b *Block, in bool) bool {
		out := in
		for _, n := range b.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN {
				out = true
			}
		}
		return out
	}
	or := func(x, y bool) bool { return x || y }
	eq := func(x, y bool) bool { return x == y }
	facts := Forward(g, false, or, marked, eq)

	// The loop head is the block holding the condition "i < 3"; after the
	// fixpoint its entry fact must be true (the back edge carries the mark).
	var headFact, sawHead bool
	for b, f := range facts {
		for _, n := range b.Nodes {
			if be, ok := n.(*ast.BinaryExpr); ok && be.Op == token.LSS {
				headFact, sawHead = f, true
			}
		}
	}
	if !sawHead {
		t.Fatal("no block holds the loop condition")
	}
	if !headFact {
		t.Error("loop head entry fact = false; the back edge must carry the mark to fixpoint")
	}
}

// TestCFGJoinsAndExit pins what lockcheck reads off the graph: the
// statement whose paths meet at each join block (in block order, "+loop"
// on a loop-head join), and Exit — the block holding the trailing "end"
// assignment when the body can fall off its end, nil when it cannot.
func TestCFGJoinsAndExit(t *testing.T) {
	tests := []struct {
		name, body, joins string
		exit              bool
	}{
		{"if", "a := 1\nif a > 0 {\n\ta = 2\n}\nend := 0\n_ = end", "*ast.IfStmt", true},
		{"switch", "switch a := 1; a {\ncase 1:\n}\nend := 0\n_ = end", "*ast.SwitchStmt", true},
		{"select", "var c chan int\nselect {\ncase <-c:\n}\nend := 0\n_ = end", "*ast.SelectStmt", true},
		{"for", "for i := 0; i < 3; i++ {\n}\nend := 0\n_ = end", "*ast.ForStmt+loop *ast.ForStmt+loop *ast.ForStmt", true},
		{"range", "for range []int{} {\n}\nend := 0\n_ = end", "*ast.RangeStmt+loop *ast.RangeStmt", true},
		{"straight line", "end := 0\n_ = end", "", true},
		{"last statement returns", "a := 1\nif a > 0 {\n\tpanic(a)\n}\nreturn", "*ast.IfStmt", false},
		{"every arm returns", "a := 1\nif a > 0 {\n\treturn\n} else {\n\treturn\n}", "*ast.IfStmt", false},
		{"loop without break", "for {\n}", "*ast.ForStmt+loop *ast.ForStmt+loop *ast.ForStmt", false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			g, _ := parseBody(t, tc.body)
			var joins []string
			for _, b := range g.Blocks {
				if b.Join != nil {
					j := fmt.Sprintf("%T", b.Join)
					if b.LoopHead {
						j += "+loop"
					}
					joins = append(joins, j)
				}
			}
			if got := strings.Join(joins, " "); got != tc.joins {
				t.Errorf("joins = %q, want %q", got, tc.joins)
			}
			if !tc.exit {
				if g.Exit != nil {
					t.Errorf("Exit = block %d, want nil", g.Exit.Index)
				}
				return
			}
			if g.Exit == nil || !slices.Contains(blockAssigns(g.Exit), "end") {
				t.Errorf("Exit = %v, want the block holding end := 0", g.Exit)
			}
		})
	}
}
