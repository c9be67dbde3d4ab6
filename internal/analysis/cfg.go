package analysis

// cfg.go is the intraprocedural engine under lockcheck: a basic-block
// control-flow graph over one function body, a generic worklist solver for
// forward dataflow problems over that graph, and the driver that hands the
// checker every function body of the module. (allocheck is not a client: it
// walks the AST from its "// hotpath" roots over modindex.go.)
//
// The graph is deliberately lightweight. Blocks hold the simple statements
// and control-condition expressions of the source in evaluation order;
// structured statements (if/for/range/switch/select) are decomposed into
// blocks and edges and never appear as nodes themselves, so a client may
// inspect each node's full subtree without double-counting control flow.
// Instead, every block where a structured statement's paths meet records
// that statement as its Join. Function literals do appear (inside whatever
// node contains them) — clients decide whether a literal's body runs here
// or elsewhere. goto is modeled conservatively as leaving the function, and
// fallthrough as ending the clause; neither occurs in this module.

import (
	"go/ast"
	"go/token"
)

// Block is one straight-line run of nodes: execution enters at the first
// node, runs them in order, and leaves along one of Succs.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
	// Join is the if, switch, select or loop whose paths meet where this
	// block starts (nil: one way in); LoopHead marks the joins where one
	// iteration meets the next — a loop's head, and a for loop's post
	// statement, where continue meets the body's end.
	Join     ast.Stmt
	LoopHead bool
	reached  bool // some path from the entry leads here
}

// CFG is the control-flow graph of a single function body. Blocks[0] is the
// entry; blocks unreachable from it (code after return) may be present but
// carry no edges into them. Exit is the reachable block whose end falls off
// the end of the body, nil when every path returns or panics.
type CFG struct {
	Blocks []*Block
	Exit   *Block
}

// NewCFG builds the control-flow graph of body.
func NewCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}}
	b.cur = b.newBlock()
	b.cur.reached = true
	b.stmtList(body.List)
	if b.cur != nil && b.cur.reached {
		b.cfg.Exit = b.cur
	}
	return b.cfg
}

// Forward solves a forward dataflow problem over g to fixpoint and returns
// every reachable block's entry fact. The client supplies the lattice:
// entry is the fact at function entry, merge joins two facts, transfer folds
// one block's nodes over its entry fact, and equal detects the fixpoint.
// All three functions must be pure — facts are shared between blocks, so
// merge and transfer must return fresh values rather than mutate arguments.
// merge must be monotone over a finite lattice or the solve may not
// terminate.
func Forward[T any](g *CFG, entry T, merge func(T, T) T, transfer func(*Block, T) T, equal func(T, T) bool) map[*Block]T {
	if len(g.Blocks) == 0 {
		return nil
	}
	in := map[*Block]T{g.Blocks[0]: entry}
	queued := map[*Block]bool{g.Blocks[0]: true}
	work := []*Block{g.Blocks[0]}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		queued[blk] = false
		out := transfer(blk, in[blk])
		for _, s := range blk.Succs {
			next := out
			if prev, ok := in[s]; ok {
				next = merge(prev, out)
				if equal(next, prev) {
					continue
				}
			}
			in[s] = next
			if !queued[s] {
				queued[s] = true
				work = append(work, s)
			}
		}
	}
	return in
}

// forEachBody is lockcheck's driver: it calls visit on every function body
// in pkgs — each declared function's and each function literal's, nested or
// package-level — and each is analyzed on its own, with nothing held on
// entry.
func forEachBody(pkgs []*Package, visit func(*Package, *ast.BlockStmt)) {
	for _, p := range pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.FuncDecl:
					if x.Body != nil {
						visit(p, x.Body)
					}
				case *ast.FuncLit:
					visit(p, x.Body)
				}
				return true
			})
		}
	}
}

type cfgBuilder struct {
	cfg *CFG
	// cur is the block under construction; nil after a terminator (return,
	// panic, break), making any statements that follow unreachable.
	cur    *Block
	frames []ctrlFrame
}

// ctrlFrame is one enclosing breakable statement (loop, switch or select).
type ctrlFrame struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select frames
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// join is newBlock for a block where the paths of s meet.
func (b *cfgBuilder) join(s ast.Stmt, loopHead bool) *Block {
	blk := b.newBlock()
	blk.Join, blk.LoopHead = s, loopHead
	return blk
}

// edge links from to to. Every edge leaves a block whose own way in is
// already built, so reachability settles as the graph grows.
func (b *cfgBuilder) edge(from, to *Block) {
	if from != nil && to != nil {
		from.Succs = append(from.Succs, to)
		to.reached = to.reached || from.reached
	}
}

func (b *cfgBuilder) add(n ast.Node) {
	if b.cur != nil && n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch x := s.(type) {
	case *ast.LabeledStmt:
		b.stmt(x.Stmt, x.Label.Name)
	case *ast.BlockStmt:
		b.stmtList(x.List)
	case *ast.ReturnStmt:
		b.add(x)
		b.cur = nil
	case *ast.ExprStmt:
		b.add(x)
		if call, ok := x.X.(*ast.CallExpr); ok && isTerminatorCall(call) {
			b.cur = nil
		}
	case *ast.BranchStmt:
		switch x.Tok {
		case token.BREAK:
			b.edge(b.cur, b.branchTarget(x.Label, false))
			b.cur = nil
		case token.CONTINUE:
			b.edge(b.cur, b.branchTarget(x.Label, true))
			b.cur = nil
		case token.GOTO:
			b.cur = nil
		}
		// fallthrough: the clause simply ends (approximation; unused here).
	case *ast.IfStmt:
		b.ifStmt(x)
	case *ast.ForStmt:
		b.forStmt(x, label)
	case *ast.RangeStmt:
		b.rangeStmt(x, label)
	case *ast.SwitchStmt:
		b.add(x.Init)
		b.add(x.Tag)
		b.clauses(x, x.Body, label)
	case *ast.TypeSwitchStmt:
		b.add(x.Init)
		b.add(x.Assign)
		b.clauses(x, x.Body, label)
	case *ast.SelectStmt:
		b.clauses(x, x.Body, label)
	default:
		// Assign, Decl, IncDec, Send, Defer, Go, Empty: straight-line.
		b.add(s)
	}
}

// isTerminatorCall reports calls that never return.
func isTerminatorCall(call *ast.CallExpr) bool {
	switch calleeName(call) {
	case "panic", "Fatal", "Fatalf", "Exit", "Goexit":
		return true
	}
	return false
}

func (b *cfgBuilder) ifStmt(x *ast.IfStmt) {
	b.add(x.Init)
	b.add(x.Cond)
	cond := b.cur
	after := b.join(x, false)
	then := b.newBlock()
	b.edge(cond, then)
	b.cur = then
	b.stmtList(x.Body.List)
	b.edge(b.cur, after)
	if x.Else != nil {
		els := b.newBlock()
		b.edge(cond, els)
		b.cur = els
		b.stmt(x.Else, "")
		b.edge(b.cur, after)
	} else {
		b.edge(cond, after)
	}
	b.cur = after
}

func (b *cfgBuilder) forStmt(x *ast.ForStmt, label string) {
	b.add(x.Init)
	head := b.join(x, true)
	b.edge(b.cur, head)
	if x.Cond != nil {
		head.Nodes = append(head.Nodes, x.Cond)
	}
	body := b.newBlock()
	post := b.join(x, true)
	after := b.join(x, false)
	b.edge(head, body)
	if x.Cond != nil {
		b.edge(head, after) // a condition-less for exits only via break
	}
	b.frames = append(b.frames, ctrlFrame{label: label, breakTo: after, continueTo: post})
	b.cur = body
	b.stmtList(x.Body.List)
	b.frames = b.frames[:len(b.frames)-1]
	b.edge(b.cur, post)
	if x.Post != nil {
		post.Nodes = append(post.Nodes, x.Post)
	}
	b.edge(post, head)
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(x *ast.RangeStmt, label string) {
	b.add(x.X)
	head := b.join(x, true)
	b.edge(b.cur, head)
	body := b.newBlock()
	after := b.join(x, false)
	b.edge(head, body)
	b.edge(head, after)
	b.frames = append(b.frames, ctrlFrame{label: label, breakTo: after, continueTo: head})
	b.cur = body
	b.stmtList(x.Body.List)
	b.frames = b.frames[:len(b.frames)-1]
	b.edge(b.cur, head)
	b.cur = after
}

// clauses lowers the body of s, a switch, type switch or select. Case
// expressions and comm statements evaluate in the dispatching block or at
// the head of their clause; every clause flows to the common after-block.
func (b *cfgBuilder) clauses(s ast.Stmt, body *ast.BlockStmt, label string) {
	start := b.cur
	after := b.join(s, false)
	b.frames = append(b.frames, ctrlFrame{label: label, breakTo: after})
	hasDefault := false
	for _, clause := range body.List {
		blk := b.newBlock()
		b.edge(start, blk)
		b.cur = blk
		var stmts []ast.Stmt
		switch cl := clause.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			for _, e := range cl.List {
				if start != nil {
					start.Nodes = append(start.Nodes, e)
				}
			}
			stmts = cl.Body
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			} else {
				blk.Nodes = append(blk.Nodes, cl.Comm)
			}
			stmts = cl.Body
		}
		b.stmtList(stmts)
		b.edge(b.cur, after)
	}
	if !hasDefault {
		b.edge(start, after)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

func (b *cfgBuilder) branchTarget(label *ast.Ident, isContinue bool) *Block {
	for i := len(b.frames) - 1; i >= 0; i-- {
		fr := b.frames[i]
		if isContinue && fr.continueTo == nil {
			continue // continue skips switch/select frames
		}
		if label == nil || fr.label == label.Name {
			if isContinue {
				return fr.continueTo
			}
			return fr.breakTo
		}
	}
	return nil
}
