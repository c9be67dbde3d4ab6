package analysis

// lockordercheck builds a whole-module lock-acquisition graph over every
// annotated synchronization primitive and checks it for deadlock shapes that
// lockcheck's one-function-at-a-time view cannot see. This file also holds
// the fact base both lock checkers read, built once per run by newLockFacts.
//
// Two field annotations define the lock classes:
//
//	mu sync.Mutex         // lockcheck:shard level=20
//	ready chan struct{}   // lockcheck:latch level=10
//
// A shard class is acquired by Lock/RLock and released by Unlock/RUnlock. A
// latch class is held from the moment a fresh channel is stored into the
// field (directly, through a local, or in a composite literal) until close;
// receiving from a latch is a blocking acquisition but never holds it.
//
// Within each function a forward may-hold dataflow over the CFG tracks the
// set of held classes. Every blocking acquisition — Lock, RLock, a latch
// receive, or a call whose summary says it may blocking-acquire — adds one
// edge held→acquired per held class. Function summaries (may-acquire, opens
// a latch, closes a latch, may block — lockcheck's fact) are computed to
// fixpoint over static module-local calls, so the graph spans packages: a
// mutex taken by a helper while the caller holds a latch or another mutex
// shows up as an edge from the held class even though the acquisition is a
// call deep.
//
// Findings:
//   - any cycle among lock classes (classic deadlock potential);
//   - a shard-class mutex acquired while any shard class is held (each one
//     guards one structure's bookkeeping: shard critical sections never
//     nest);
//   - a class that participates in the graph but declares no "level=N" in
//     its annotation (an ordering documentation gap);
//   - an edge that does not go strictly upward in declared levels.
//
// Deferred statements and goroutine bodies are skipped in the held-set walk
// (a deferred Unlock keeps the lock held to function exit, which is exactly
// what the walk models); function literals are analyzed as their own
// entry points with nothing held.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strconv"
	"strings"
)

const (
	shardDirective = "lockcheck:shard"
	latchDirective = "lockcheck:latch"
)

// ioPrimitives are the method names that perform (simulated) device I/O.
var ioPrimitives = map[string]bool{
	"ReadPage": true, "WritePage": true, "Sync": true, "Allocate": true,
	"ReadAt": true, "WriteAt": true, "Truncate": true,
}

type lockOrderCheck struct{}

// NewLockOrderCheck returns the whole-module lock-ordering checker.
func NewLockOrderCheck() Checker { return lockOrderCheck{} }

func (lockOrderCheck) Name() string { return "lockordercheck" }

func (lockOrderCheck) CheckModule(pkgs []*Package) []Finding {
	lo := &lockOrder{
		lockFacts: newLockFacts(pkgs),
		reporter:  newReporter("lockordercheck"),
		edges:     map[[2]int]*lockEdge{},
	}
	if len(lo.classes) == 0 {
		return nil
	}
	forEachBody(pkgs, lo.walkBody)
	lo.checkGraph()
	return lo.findings
}

// lockClass is one annotated field: every instance of the annotated struct
// (every Pool, say) shares the class of its field (Pool.mu).
type lockClass struct {
	id    int
	name  string // pkg.Type.field
	shard bool   // lockcheck:shard mutex (else a lockcheck:latch channel)
	level int    // declared acquisition level; 0 = undeclared
	pos   token.Position
}

type lockEdge struct {
	from, to *lockClass
	pos      token.Position // earliest acquisition site, for reporting
}

// lockSummary is a function's transitive effect on the held set.
type lockSummary struct {
	acquires map[int]bool // classes it may blocking-acquire
	opens    map[int]bool // latch classes it may leave held
	closes   map[int]bool // latch classes it closes
	blocks   bool         // may do device I/O, send, receive or select
	callees  []*types.Func
}

// lockFacts is the one lock fact base: the annotated classes, the latch
// aliases, and every declared function's summary.
type lockFacts struct {
	classes []*lockClass
	byField map[types.Object]*lockClass
	aliases map[types.Object]*lockClass // latch-typed locals bound to a field
	idx     *moduleIndex
	sums    map[*types.Func]*lockSummary
}

// newLockFacts builds the fact base of pkgs; lockcheck and lockordercheck
// both start from it.
func newLockFacts(pkgs []*Package) *lockFacts {
	f := &lockFacts{
		byField: map[types.Object]*lockClass{},
		aliases: map[types.Object]*lockClass{},
		idx:     indexModule(pkgs),
		sums:    map[*types.Func]*lockSummary{},
	}
	for _, p := range pkgs {
		f.collectClasses(p)
	}
	for _, p := range pkgs {
		f.collectAliases(p)
	}
	f.summarize()
	return f
}

type lockOrder struct {
	*lockFacts
	*reporter
	edges map[[2]int]*lockEdge
}

// reporter collects one checker's findings, each position and message once.
type reporter struct {
	checker  string
	seen     map[Finding]bool
	findings []Finding
}

func newReporter(checker string) *reporter {
	return &reporter{checker: checker, seen: map[Finding]bool{}}
}

func (r *reporter) report(pos token.Position, msg string) {
	f := Finding{Pos: pos, Checker: r.checker, Message: msg}
	if !r.seen[f] {
		r.seen[f] = true
		r.findings = append(r.findings, f)
	}
}

// --- class collection --------------------------------------------------------

func (f *lockFacts) collectClasses(p *Package) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				shard := fieldHasDirective(field, shardDirective)
				latch := fieldHasDirective(field, latchDirective)
				if !shard && !latch {
					continue
				}
				for _, name := range field.Names {
					obj := p.Info.Defs[name]
					if obj == nil {
						continue
					}
					if shard && !isMutexType(obj.Type()) {
						continue
					}
					if latch {
						if _, ok := obj.Type().Underlying().(*types.Chan); !ok {
							continue
						}
					}
					cls := &lockClass{
						id:    len(f.classes),
						name:  fmt.Sprintf("%s.%s.%s", p.Pkg.Name(), ts.Name.Name, name.Name),
						shard: shard,
						level: lockLevel(field),
						pos:   p.Fset.Position(name.Pos()),
					}
					f.classes = append(f.classes, cls)
					f.byField[obj] = cls
				}
			}
			return true
		})
	}
}

// lockLevel parses the "level=N" token out of the field's annotation comment.
func lockLevel(field *ast.Field) int {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, word := range strings.Fields(cg.Text()) {
			if v, ok := strings.CutPrefix(word, "level="); ok {
				if n, err := strconv.Atoi(v); err == nil && n > 0 {
					return n
				}
			}
		}
	}
	return 0
}

// collectAliases binds latch-typed locals to their class wherever a file
// moves a latch between a field and a local: latch := e.building,
// e.building = latch. Object identity keeps bindings from crossing scopes.
func (f *lockFacts) collectAliases(p *Package) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				rhs := ast.Unparen(as.Rhs[i])
				if cls := f.fieldClass(p, rhs); cls != nil && !cls.shard {
					if obj := identObj(p, lhs); obj != nil {
						f.aliases[obj] = cls
					}
				}
				if cls := f.fieldClass(p, ast.Unparen(lhs)); cls != nil && !cls.shard {
					if obj := identObj(p, as.Rhs[i]); obj != nil {
						f.aliases[obj] = cls
					}
				}
			}
			return true
		})
	}
}

func identObj(p *Package, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := p.Info.Defs[id]; obj != nil {
		return obj
	}
	return p.Info.Uses[id]
}

// fieldClass resolves x.field to its lock class, if annotated.
func (f *lockFacts) fieldClass(p *Package, e ast.Expr) *lockClass {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return f.byField[p.Info.Uses[sel.Sel]]
}

// latchClass resolves an expression — field selector or aliased local — to a
// latch class.
func (f *lockFacts) latchClass(p *Package, e ast.Expr) *lockClass {
	if cls := f.fieldClass(p, e); cls != nil && !cls.shard {
		return cls
	}
	if obj := identObj(p, e); obj != nil {
		return f.aliases[obj]
	}
	return nil
}

// mutexCall matches recv.Lock/RLock/Unlock/RUnlock on a sync.Mutex or
// sync.RWMutex, returning the method, the receiver's text (the key lockcheck
// tracks it by) and its class when the field is annotated.
func (f *lockFacts) mutexCall(p *Package, call *ast.CallExpr) (op, key string, cls *lockClass) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", "", nil
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", nil
	}
	recv := ast.Unparen(sel.X)
	t := p.Info.TypeOf(recv)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if !isMutexType(t) {
		return "", "", nil
	}
	return sel.Sel.Name, types.ExprString(recv), f.fieldClass(p, recv)
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

func fieldHasDirective(field *ast.Field, directive string) bool {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg != nil && strings.Contains(cg.Text(), directive) {
			return true
		}
	}
	return false
}

// --- function summaries ------------------------------------------------------

func (f *lockFacts) summarize() {
	for fn, fd := range f.idx.funcs {
		f.sums[fn] = f.directSummary(fd.pkg, fd.decl)
	}
	for changed := true; changed; {
		changed = false
		for _, sum := range f.sums {
			for _, callee := range sum.callees {
				cs := f.sums[callee]
				if cs == nil {
					continue
				}
				changed = union(sum.acquires, cs.acquires) || changed
				changed = union(sum.opens, cs.opens) || changed
				changed = union(sum.closes, cs.closes) || changed
				if cs.blocks && !sum.blocks {
					sum.blocks, changed = true, true
				}
			}
		}
	}
}

func union(dst, src map[int]bool) bool {
	changed := false
	for k := range src {
		if !dst[k] {
			dst[k] = true
			changed = true
		}
	}
	return changed
}

// directSummary collects a function's own facts, excluding nested function
// literals and goroutine bodies (they run on other stacks) but including
// deferred statements (their closes happen before return).
func (f *lockFacts) directSummary(p *Package, fd *ast.FuncDecl) *lockSummary {
	sum := &lockSummary{
		acquires: map[int]bool{},
		opens:    map[int]bool{},
		closes:   map[int]bool{},
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.SendStmt, *ast.SelectStmt:
			sum.blocks = true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				sum.blocks = true
				if cls := f.latchClass(p, x.X); cls != nil {
					sum.acquires[cls.id] = true
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				cls := f.fieldClass(p, lhs)
				if cls == nil || cls.shard || i >= len(x.Rhs) {
					continue
				}
				if isNilIdent(x.Rhs[i]) {
					sum.closes[cls.id] = true
				} else {
					sum.opens[cls.id] = true
				}
			}
		case *ast.KeyValueExpr:
			if cls := f.structKeyClass(p, x); cls != nil && !isNilIdent(x.Value) {
				sum.opens[cls.id] = true
			}
		case *ast.CallExpr:
			f.summarizeCall(p, x, sum)
		}
		return true
	})
	return sum
}

func (f *lockFacts) summarizeCall(p *Package, call *ast.CallExpr, sum *lockSummary) {
	if op, _, cls := f.mutexCall(p, call); op != "" {
		if cls != nil && (op == "Lock" || op == "RLock") {
			sum.acquires[cls.id] = true
		}
		return
	}
	if calleeName(call) == "close" && len(call.Args) == 1 {
		if cls := f.latchClass(p, call.Args[0]); cls != nil {
			sum.closes[cls.id] = true
		}
		return
	}
	sum.blocks = sum.blocks || ioPrimitives[calleeName(call)]
	if _, fn, ok := f.idx.callee(p, call); ok {
		sum.callees = append(sum.callees, fn)
	}
}

// structKeyClass resolves a composite-literal key to an annotated latch
// field: &slot{opening: make(chan struct{})} opens slot.opening.
func (f *lockFacts) structKeyClass(p *Package, kv *ast.KeyValueExpr) *lockClass {
	id, ok := kv.Key.(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := p.Info.Uses[id].(*types.Var)
	if !ok || !v.IsField() {
		return nil
	}
	cls := f.byField[v]
	if cls == nil || cls.shard {
		return nil
	}
	return cls
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// --- the per-function held-set walk ------------------------------------------

// heldSet maps held class ids to their acquisition position.
type heldSet map[int]token.Pos

// walkBody solves the may-hold dataflow over the body's CFG, then replays
// each reachable block against its fixpoint entry state to report edges and
// violations exactly once.
func (lo *lockOrder) walkBody(p *Package, body *ast.BlockStmt) {
	g := NewCFG(body)
	merge := func(a, b heldSet) heldSet {
		out := maps.Clone(a)
		for k, v := range b {
			if ex, ok := out[k]; !ok || v < ex {
				out[k] = v
			}
		}
		return out
	}
	transfer := func(blk *Block, in heldSet) heldSet {
		out := maps.Clone(in)
		for _, n := range blk.Nodes {
			lo.apply(p, n, out, false)
		}
		return out
	}
	in := Forward(g, heldSet{}, merge, transfer, maps.Equal[heldSet, heldSet])
	for _, blk := range g.Blocks {
		state, ok := in[blk]
		if !ok {
			continue
		}
		state = maps.Clone(state)
		for _, n := range blk.Nodes {
			lo.apply(p, n, state, true)
		}
	}
}

// apply folds one CFG node over the held set; with report set it also emits
// graph edges and shard-nesting findings.
func (lo *lockOrder) apply(p *Package, n ast.Node, held heldSet, report bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				if cls := lo.latchClass(p, x.X); cls != nil {
					lo.acquire(p, cls, x.Pos(), held, false, report)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				cls := lo.fieldClass(p, lhs)
				if cls == nil || cls.shard || i >= len(x.Rhs) {
					continue
				}
				if isNilIdent(x.Rhs[i]) {
					delete(held, cls.id)
				} else {
					held[cls.id] = lhs.Pos()
				}
			}
		case *ast.KeyValueExpr:
			if cls := lo.structKeyClass(p, x); cls != nil && !isNilIdent(x.Value) {
				held[cls.id] = x.Pos()
			}
		case *ast.CallExpr:
			lo.applyCall(p, x, held, report)
		}
		return true
	})
}

func (lo *lockOrder) applyCall(p *Package, call *ast.CallExpr, held heldSet, report bool) {
	if op, _, cls := lo.mutexCall(p, call); op != "" {
		switch {
		case cls == nil: // an unannotated mutex is no lock class
		case op == "Lock" || op == "RLock":
			lo.acquire(p, cls, call.Pos(), held, true, report)
		default:
			delete(held, cls.id)
		}
		return
	}
	if calleeName(call) == "close" && len(call.Args) == 1 {
		if cls := lo.latchClass(p, call.Args[0]); cls != nil {
			delete(held, cls.id)
		}
		return
	}
	if _, fn, ok := lo.idx.callee(p, call); ok {
		sum := lo.sums[fn]
		for _, id := range sortedIDs(sum.acquires) {
			lo.acquire(p, lo.classes[id], call.Pos(), held, false, report)
		}
		for id := range sum.opens {
			held[id] = call.Pos()
		}
		for id := range sum.closes {
			delete(held, id)
		}
	}
}

// acquire processes one blocking acquisition of cls: edges from everything
// held, the shard-nesting rule, and (for Lock/RLock) adding cls to the set.
func (lo *lockOrder) acquire(p *Package, cls *lockClass, pos token.Pos, held heldSet, addHeld, report bool) {
	if report {
		for _, id := range sortedIDs(held) {
			if id != cls.id {
				lo.addEdge(lo.classes[id], cls, p.Fset.Position(pos))
			}
			if cls.shard && lo.classes[id].shard {
				lo.report(p.Fset.Position(pos), fmt.Sprintf(
					"two shard mutexes held at once: acquiring %s while %s is held (shard critical sections must not nest)",
					cls.name, lo.classes[id].name))
			}
		}
	}
	if addHeld {
		held[cls.id] = pos
	}
}

func sortedIDs[V any](m map[int]V) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

func (lo *lockOrder) addEdge(from, to *lockClass, pos token.Position) {
	key := [2]int{from.id, to.id}
	if e := lo.edges[key]; e == nil || posLess(pos, e.pos) {
		lo.edges[key] = &lockEdge{from: from, to: to, pos: pos}
	}
}

func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

// --- whole-graph rules -------------------------------------------------------

func (lo *lockOrder) checkGraph() {
	edges := make([]*lockEdge, 0, len(lo.edges))
	for _, e := range lo.edges {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from.id != edges[j].from.id {
			return edges[i].from.id < edges[j].from.id
		}
		return edges[i].to.id < edges[j].to.id
	})

	// Every class on an edge must document its place in the order.
	gap := map[int]bool{}
	for _, e := range edges {
		for _, cls := range []*lockClass{e.from, e.to} {
			if cls.level == 0 && !gap[cls.id] {
				gap[cls.id] = true
				lo.report(cls.pos, fmt.Sprintf(
					"lock-order documentation gap: %s participates in the acquisition order but declares no level; annotate the field comment with level=N",
					cls.name))
			}
		}
	}

	// Every documented edge must go strictly upward.
	for _, e := range edges {
		if e.from.level > 0 && e.to.level > 0 && e.from.level >= e.to.level {
			lo.report(e.pos, fmt.Sprintf(
				"lock-order violation: %s (level %d) acquired while %s (level %d) is held; acquisition levels must strictly increase",
				e.to.name, e.to.level, e.from.name, e.from.level))
		}
	}

	// Any cycle in the class graph is deadlock potential regardless of
	// documentation.
	for _, scc := range stronglyConnected(len(lo.classes), edges) {
		if len(scc) < 2 {
			continue
		}
		names := make([]string, len(scc))
		for i, id := range scc {
			names[i] = lo.classes[id].name
		}
		sort.Strings(names)
		pos := token.Position{}
		for _, e := range edges {
			if inSCC(scc, e.from.id) && inSCC(scc, e.to.id) {
				if pos.Filename == "" || posLess(e.pos, pos) {
					pos = e.pos
				}
			}
		}
		lo.report(pos, fmt.Sprintf(
			"lock-order cycle among %s: opposite acquisition orders can deadlock",
			strings.Join(names, " ↔ ")))
	}
}

func inSCC(scc []int, id int) bool {
	for _, v := range scc {
		if v == id {
			return true
		}
	}
	return false
}

// stronglyConnected returns Tarjan's components of the class digraph.
func stronglyConnected(n int, edges []*lockEdge) [][]int {
	succ := make([][]int, n)
	for _, e := range edges {
		succ[e.from.id] = append(succ[e.from.id], e.to.id)
	}
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var stack []int
	var out [][]int
	next := 0
	var strong func(v int)
	strong = func(v int) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succ[v] {
			if index[w] == unvisited {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Ints(scc)
			out = append(out, scc)
		}
	}
	for v := 0; v < n; v++ {
		if index[v] == unvisited {
			strong(v)
		}
	}
	return out
}
