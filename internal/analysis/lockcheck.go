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

// lockCheck guards the buffer pool's concurrency contract (DESIGN.md §6):
//
//  1. While a pool-shard mutex is held, no device I/O and no blocking
//     channel operation may run. Shard mutexes are the shard classes of the
//     lock fact base (a sync.Mutex / sync.RWMutex field annotated
//     "lockcheck:shard"). Device I/O is recognized by the project's
//     page-transfer method names (ReadPage, WritePage, ...) and, through the
//     fact base's summaries, behind same-package helpers, so hiding a read
//     behind a helper does not evade the rule.
//  2. Every Lock/RLock of any mutex is released on every return path of the
//     function that acquired it (directly or via defer), the held set is the
//     same on every path meeting after an if, switch, select or loop exit,
//     and a loop iteration leaves it the way it found it.
//
// Each function body and function literal is a forward dataflow over its
// CFG (cfg.go): the fact is the set of held mutexes keyed by the receiver
// expression text (sh.mu, db.stmtMu, ...), which matches how the codebase
// writes lock calls, and the join is intersection. break, continue and
// return are edges, so a lock carried along one is seen where it meets the
// other paths.
type lockCheck struct{}

// NewLockCheck returns the lockcheck checker.
func NewLockCheck() Checker { return lockCheck{} }

func (lockCheck) Name() string { return "lockcheck" }

func (lockCheck) CheckModule(pkgs []*Package) []Finding {
	c := &lockFunc{lockFacts: newLockFacts(pkgs), reporter: newReporter("lockcheck")}
	forEachBody(pkgs, c.check)
	return c.findings
}

// heldLock is one acquired mutex in the abstract state.
type heldLock struct {
	shard    bool      // a lockcheck:shard class
	write    bool      // Lock (true) vs RLock (false)
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

// shard returns the first held shard mutex in key order, or "".
func (s lockState) shard() string {
	key := ""
	for k, h := range s {
		if h.shard && (key == "" || k < key) {
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

// lockFunc solves one function body at a time over the module's facts.
type lockFunc struct {
	*lockFacts
	*reporter
	pkg   *Package
	comms map[ast.Node]*ast.SelectStmt // comm statement → its select
}

func (c *lockFunc) reportf(pos token.Pos, format string, args ...any) {
	c.report(c.pkg.Fset.Position(pos), fmt.Sprintf(format, args...))
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
			c.held(body.Rbrace, out, "function ends with %s still locked (Lock at line %d)")
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
			c.reportf(pos, format, key, c.pkg.Fset.Position(h.pos).Line)
		}
	}
}

// transfer folds one block over a copy of in; with report set it also emits
// the findings of its nodes.
func (c *lockFunc) transfer(blk *Block, in lockState, report bool) lockState {
	st := maps.Clone(in)
	if r, ok := blk.Join.(*ast.RangeStmt); ok && blk.LoopHead && report && st.shard() != "" {
		if _, isChan := c.pkg.Info.TypeOf(r.X).Underlying().(*types.Chan); isChan {
			c.reportf(r.Pos(), "channel receive (range) while shard mutex %s is held", st.shard())
		}
	}
	for _, n := range blk.Nodes {
		c.node(n, st, report)
	}
	return st
}

func (c *lockFunc) node(n ast.Node, st lockState, report bool) {
	if sel := c.comms[n]; sel != nil {
		if report && st.shard() != "" {
			c.reportf(sel.Pos(), "select (blocking channel operation) while shard mutex %s is held", st.shard())
		}
		return
	}
	switch x := n.(type) {
	case *ast.ExprStmt:
		if call, ok := x.X.(*ast.CallExpr); ok {
			if op, key, cls := c.mutexCall(c.pkg, call); op != "" {
				c.mutexOp(call.Pos(), op, key, cls, st, report)
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
		c.held(n.Pos(), st, "return with %s locked (Lock at line %d): missing Unlock on this path")
	}
}

func (c *lockFunc) mutexOp(pos token.Pos, op, key string, cls *lockClass, st lockState, report bool) {
	if op == "Unlock" || op == "RUnlock" {
		delete(st, key)
		return
	}
	write := op == "Lock"
	if prev, ok := st[key]; ok && prev.write && write && report {
		c.reportf(pos, "second Lock of %s while already held (Lock at line %d): deadlock",
			key, c.pkg.Fset.Position(prev.pos).Line)
	}
	st[key] = heldLock{shard: cls != nil && cls.shard, write: write, pos: pos}
}

// scan flags device I/O and blocking channel operations inside n while a
// shard mutex is held. Function literals are skipped: they execute later,
// on their own stack.
func (c *lockFunc) scan(n ast.Node, st lockState, report bool) {
	key := st.shard()
	if !report || key == "" {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			c.reportf(x.Pos(), "channel send while shard mutex %s is held", key)
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				c.reportf(x.Pos(), "channel receive while shard mutex %s is held", key)
			}
		case *ast.CallExpr:
			if name := calleeName(x); ioPrimitives[name] {
				c.reportf(x.Pos(), "device I/O (%s) while shard mutex %s is held", name, key)
			} else if _, fn, ok := c.idx.callee(c.pkg, x); ok && fn.Pkg() == c.pkg.Pkg && c.sums[fn].blocks {
				c.reportf(x.Pos(), "call to %s, which may perform device I/O or block on a channel, while shard mutex %s is held",
					fn.Name(), key)
			}
		}
		return true
	})
}
