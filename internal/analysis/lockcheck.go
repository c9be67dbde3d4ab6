package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"
)

// lockCheck is the module's one lock checker. It guards the concurrency
// contract of DESIGN.md §6 with two rules:
//
//  1. A held annotated mutex is a leaf. A sync.Mutex / sync.RWMutex field
//     annotated "lockcheck:leaf" guards one structure's bookkeeping, and
//     while it is held nothing may run that does device I/O, does a
//     blocking channel operation or wait, or may acquire an annotated
//     mutex. Device I/O is recognized by the project's page-transfer method
//     names (ioPrimitives); a wait is sync.WaitGroup.Wait or sync.Cond.Wait,
//     recognized by the callee's object, not its name (syncWait); close
//     never blocks and stays allowed. A call counts
//     by its callee's summary, computed to fixpoint over the static calls
//     of the whole module, so hiding a read, a receive or a Lock behind a
//     helper in any package does not evade the rule.
//  2. Every Lock/RLock of any mutex is released on every return path of the
//     function that acquired it (directly or via defer), the held set is the
//     same on every path meeting after an if, switch, select or loop exit, a
//     loop iteration leaves it the way it found it, and no path locks a
//     mutex it already holds.
//
// Rule 1 leaves no lock-order cycle to look for: a cycle needs an edge out
// of a held lock, and each such edge — acquiring an annotated mutex, or
// awaiting a latch, which is a channel receive — is a rule-1 finding.
//
// Each function body and function literal is a forward dataflow over its
// CFG (cfg.go): the fact is the set of held mutexes keyed by the receiver
// expression text (p.mu, r.mu, ...), which matches how the codebase writes
// lock calls, and the join is intersection. break, continue and return are
// edges, so a lock carried along one is seen where it meets the other paths.
type lockCheck struct{}

// NewLockCheck returns the lockcheck checker.
func NewLockCheck() Checker { return lockCheck{} }

func (lockCheck) Name() string { return "lockcheck" }

func (lockCheck) CheckModule(pkgs []*Package) []Finding {
	c := &lockFunc{
		leaves: map[types.Object]bool{},
		idx:    indexModule(pkgs),
		sums:   map[*types.Func]*lockSummary{},
		seen:   map[Finding]bool{},
	}
	for _, p := range pkgs {
		c.collectLeaves(p)
	}
	c.summarize()
	forEachBody(pkgs, c.check)
	return c.findings
}

const leafDirective = "lockcheck:leaf"

// ioPrimitives are the method names that perform (simulated) device I/O.
var ioPrimitives = map[string]bool{
	"ReadPage": true, "WritePage": true, "Sync": true, "Allocate": true,
	"ReadAt": true, "WriteAt": true, "Truncate": true,
}

// syncWait names the sync method call waits in — "WaitGroup.Wait" or
// "Cond.Wait", matched by the callee's object, so a Wait method of any other
// type is not one — or returns "".
func syncWait(p *Package, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" || fn.Name() != "Wait" {
		return ""
	}
	recv := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	if named, ok := recv.(*types.Named); ok && (named.Obj().Name() == "WaitGroup" || named.Obj().Name() == "Cond") {
		return named.Obj().Name() + ".Wait"
	}
	return ""
}

// lockSummary is what a call to a declared function may do, transitively.
type lockSummary struct {
	acquires bool // Lock or RLock an annotated mutex
	blocks   bool // device I/O, a send, a receive, a select or a sync wait
	callees  []*types.Func
}

// heldLock is one acquired mutex in the abstract state.
type heldLock struct {
	leaf     bool      // a lockcheck:leaf field
	op       string    // Lock or RLock
	pos      token.Pos // the acquiring call
	deferred bool      // a defer releases it at function exit
}

// lockState maps each held mutex's receiver text to its acquisition.
type lockState map[string]heldLock

// keys returns the held mutexes in order.
func (s lockState) keys() []string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// leaf returns the first held leaf mutex in key order, or "".
func (s lockState) leaf() string {
	key := ""
	for k, h := range s {
		if h.leaf && (key == "" || k < key) {
			key = k
		}
	}
	return key
}

// meet is the join: the mutexes held on both paths, with a's records. It
// only ever drops keys of a, so the solver's fixpoint test compares sizes.
func meet(a, b lockState) lockState {
	out := lockState{}
	for k, h := range a {
		if _, ok := b[k]; ok {
			out[k] = h
		}
	}
	return out
}

// lockFunc holds the module's lock facts — the annotated fields and every
// declared function's summary — and solves one function body at a time
// over them.
type lockFunc struct {
	leaves   map[types.Object]bool
	idx      *moduleIndex
	sums     map[*types.Func]*lockSummary
	seen     map[Finding]bool
	findings []Finding
	pkg      *Package
	comms    map[ast.Node]*ast.SelectStmt // comm statement → its select
}

// reportf records a finding once per position and message.
func (c *lockFunc) reportf(pos token.Pos, format string, args ...any) {
	f := Finding{Pos: c.pkg.Fset.Position(pos), Checker: "lockcheck", Message: fmt.Sprintf(format, args...)}
	if !c.seen[f] {
		c.seen[f] = true
		c.findings = append(c.findings, f)
	}
}

// collectLeaves records every mutex field of p annotated lockcheck:leaf.
func (c *lockFunc) collectLeaves(p *Package) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if !fieldHasDirective(field, leafDirective) {
					continue
				}
				for _, name := range field.Names {
					if obj := p.Info.Defs[name]; obj != nil && isMutexType(obj.Type()) {
						c.leaves[obj] = true
					}
				}
			}
			return true
		})
	}
}

func fieldHasDirective(field *ast.Field, directive string) bool {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg != nil && strings.Contains(cg.Text(), directive) {
			return true
		}
	}
	return false
}

func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// mutexCall matches recv.Lock/RLock/Unlock/RUnlock on a sync.Mutex or
// sync.RWMutex, returning the method, the receiver's text (the key the
// state tracks it by) and whether the field is annotated.
func (c *lockFunc) mutexCall(p *Package, call *ast.CallExpr) (op, key string, leaf bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	recv := ast.Unparen(sel.X)
	t := p.Info.TypeOf(recv)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if !isMutexType(t) {
		return "", "", false
	}
	field, ok := recv.(*ast.SelectorExpr)
	return sel.Sel.Name, types.ExprString(recv), ok && c.leaves[p.Info.Uses[field.Sel]]
}

// summarize computes every declared function's summary: its own facts, then
// its callees' folded in until nothing changes.
func (c *lockFunc) summarize() {
	for fn, fd := range c.idx.funcs {
		c.sums[fn] = c.directSummary(fd.pkg, fd.decl.Body)
	}
	for changed := true; changed; {
		changed = false
		for _, sum := range c.sums {
			for _, callee := range sum.callees {
				cs := c.sums[callee]
				if cs.acquires && !sum.acquires || cs.blocks && !sum.blocks {
					sum.acquires = sum.acquires || cs.acquires
					sum.blocks = sum.blocks || cs.blocks
					changed = true
				}
			}
		}
	}
}

// directSummary collects a function's own facts, excluding nested function
// literals and goroutine bodies (they run on other stacks) but including
// deferred statements (they run before the call returns).
func (c *lockFunc) directSummary(p *Package, body *ast.BlockStmt) *lockSummary {
	sum := &lockSummary{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.SendStmt, *ast.SelectStmt:
			sum.blocks = true
		case *ast.UnaryExpr:
			sum.blocks = sum.blocks || x.Op == token.ARROW
		case *ast.CallExpr:
			if op, _, leaf := c.mutexCall(p, x); op != "" {
				sum.acquires = sum.acquires || leaf && (op == "Lock" || op == "RLock")
				return true
			}
			sum.blocks = sum.blocks || ioPrimitives[calleeName(x)] || syncWait(p, x) != ""
			if _, fn, ok := c.idx.callee(p, x); ok {
				sum.callees = append(sum.callees, fn)
			}
		}
		return true
	})
	return sum
}

// check solves body to fixpoint, then replays each reachable block once
// from its entry fact to report: node findings, joins whose incoming
// states disagree, and locks still held where the body falls off its end.
func (c *lockFunc) check(p *Package, body *ast.BlockStmt) {
	c.pkg, c.comms = p, map[ast.Node]*ast.SelectStmt{}
	acquires := false // a body that takes no lock can hold none: skip it
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false // a body of its own
		case *ast.CallExpr:
			acquires = acquires || calleeName(x) == "Lock" || calleeName(x) == "RLock"
		case *ast.SelectStmt:
			for _, cl := range x.Body.List {
				if comm := cl.(*ast.CommClause).Comm; comm != nil {
					c.comms[comm] = x
				}
			}
		}
		return true
	})
	if !acquires {
		return
	}
	g := NewCFG(body)
	in := Forward(g, lockState{}, meet, func(blk *Block, s lockState) lockState {
		return c.transfer(blk, s, false)
	}, func(a, b lockState) bool { return len(a) == len(b) })
	incoming := map[*Block][]lockState{}
	for _, blk := range g.Blocks {
		st, ok := in[blk]
		if !ok {
			continue
		}
		out := c.transfer(blk, st, true)
		for _, s := range blk.Succs {
			if s.Join != nil {
				incoming[s] = append(incoming[s], out)
			}
		}
		if blk == g.Exit {
			c.held(body.Rbrace, out, "function ends with %s still locked (%s at line %d)")
		}
	}
	for _, blk := range g.Blocks {
		states := incoming[blk]
		for i := 1; i < len(states); i++ {
			first, other := strings.Join(states[0].keys(), ","), strings.Join(states[i].keys(), ",")
			if first != other {
				format := "branches disagree on held locks after this statement (%q vs %q)"
				if blk.LoopHead {
					format = "lock state changes across one loop iteration (%q vs %q)"
				}
				c.reportf(blk.Join.Pos(), format, first, other)
				break
			}
		}
	}
}

// held reports each mutex of st that no defer releases.
func (c *lockFunc) held(pos token.Pos, st lockState, format string) {
	for _, key := range st.keys() {
		if h := st[key]; !h.deferred {
			c.reportf(pos, format, key, h.op, c.pkg.Fset.Position(h.pos).Line)
		}
	}
}

// transfer folds one block over a copy of in; with report set it also emits
// the findings of its nodes.
func (c *lockFunc) transfer(blk *Block, in lockState, report bool) lockState {
	st := maps.Clone(in)
	if r, ok := blk.Join.(*ast.RangeStmt); ok && blk.LoopHead && report && st.leaf() != "" {
		if _, isChan := c.pkg.Info.TypeOf(r.X).Underlying().(*types.Chan); isChan {
			c.reportf(r.Pos(), "channel receive (range) while leaf mutex %s is held", st.leaf())
		}
	}
	for _, n := range blk.Nodes {
		c.node(n, st, report)
	}
	return st
}

func (c *lockFunc) node(n ast.Node, st lockState, report bool) {
	if sel := c.comms[n]; sel != nil {
		if report && st.leaf() != "" {
			c.reportf(sel.Pos(), "select (blocking channel operation) while leaf mutex %s is held", st.leaf())
		}
		return
	}
	switch x := n.(type) {
	case *ast.ExprStmt:
		if call, ok := x.X.(*ast.CallExpr); ok {
			if op, key, leaf := c.mutexCall(c.pkg, call); op != "" {
				c.mutexOp(call.Pos(), op, key, leaf, st, report)
				return
			}
		}
	case *ast.DeferStmt:
		// A deferred Unlock, direct or inside a deferred literal, releases
		// the lock at exit; the deferred call itself runs after the body.
		ast.Inspect(x.Call, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if op, key, _ := c.mutexCall(c.pkg, call); strings.HasSuffix(op, "Unlock") {
					if h, held := st[key]; held {
						h.deferred = true
						st[key] = h
					}
				}
			}
			return true
		})
		return
	case *ast.GoStmt:
		// Only the arguments evaluate here; the call runs on its own stack.
		for _, arg := range x.Call.Args {
			c.scan(arg, st, report)
		}
		return
	}
	c.scan(n, st, report)
	if _, ok := n.(*ast.ReturnStmt); ok && report {
		c.held(n.Pos(), st, "return with %s locked (%s at line %d): missing Unlock on this path")
	}
}

// mutexOp applies one Lock, RLock, Unlock or RUnlock. Locking a mutex the
// path already holds deadlocks in every combination — Lock under Lock or
// RLock, RLock under Lock, and RLock under RLock once a writer waits — and
// locking a leaf mutex under another breaks rule 1.
func (c *lockFunc) mutexOp(pos token.Pos, op, key string, leaf bool, st lockState, report bool) {
	if op == "Unlock" || op == "RUnlock" {
		delete(st, key)
		return
	}
	if prev, ok := st[key]; ok && report {
		c.reportf(pos, "%s of %s while already held (%s at line %d): deadlock",
			op, key, prev.op, c.pkg.Fset.Position(prev.pos).Line)
	} else if held := st.leaf(); report && leaf && held != "" {
		c.reportf(pos, "%s of leaf mutex %s while leaf mutex %s is held", op, key, held)
	}
	st[key] = heldLock{leaf: leaf, op: op, pos: pos}
}

// scan flags device I/O, blocking channel operations and calls that may do
// either or acquire an annotated mutex inside n while a leaf mutex is held.
// Function literals are skipped: they execute later, on their own stack.
func (c *lockFunc) scan(n ast.Node, st lockState, report bool) {
	key := st.leaf()
	if !report || key == "" {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			c.reportf(x.Pos(), "channel send while leaf mutex %s is held", key)
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				c.reportf(x.Pos(), "channel receive while leaf mutex %s is held", key)
			}
		case *ast.CallExpr:
			_, fn, ok := c.idx.callee(c.pkg, x)
			switch {
			case ioPrimitives[calleeName(x)]:
				c.reportf(x.Pos(), "device I/O (%s) while leaf mutex %s is held", calleeName(x), key)
			case syncWait(c.pkg, x) != "":
				c.reportf(x.Pos(), "blocking wait (sync.%s) while leaf mutex %s is held", syncWait(c.pkg, x), key)
			case ok && c.sums[fn].acquires:
				c.reportf(x.Pos(), "call to %s, which may acquire an annotated mutex, while leaf mutex %s is held", fn.Name(), key)
			case ok && c.sums[fn].blocks:
				c.reportf(x.Pos(), "call to %s, which may perform device I/O or block, while leaf mutex %s is held",
					fn.Name(), key)
			}
		}
		return true
	})
}
