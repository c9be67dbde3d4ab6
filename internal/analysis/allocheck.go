package analysis

// allocheck statically enforces the allocation discipline the runtime
// TestFusedAllocsBudget ratchet measures: every function reachable from a
// "// hotpath" annotated root through static module-local calls must be free
// of hidden heap allocations. The ratchet catches a regression after the
// fact, on the workloads it happens to run; this checker catches it at lint
// time, on every path.
//
// Annotation contract (doc-comment lines, first word decides):
//
//	// hotpath — this function is a hot-path root; everything it can
//	//   statically reach must be allocation-free.
//	// hotpath:cold — this function is off the hot path (not scanned, not
//	//   descended into) even when a hot function calls it.
//
// A "hotpath:cold" marker anywhere in the comment block directly above a
// statement (or trailing on its first line) inside a hot function exempts
// just that statement's subtree — the escape hatch for deliberate slow
// paths like a text column the integer-only kernels never decode.
//
// Flagged inside hot functions: map and slice composite literals, &T{}
// literals, new, make and append outside the arena capacity-growth protocol
// (make is allowed under an enclosing "if cap(...)" growth guard; append
// only as x = append(x, ...) self-append), closures that capture variables,
// bound method values, any fmt call, string concatenation and string<->byte
// conversions, and interface boxing at call sites (non-constant concrete
// arguments passed to interface parameters).
//
// Deliberate boundaries, documented in DESIGN.md §12: value-struct literals
// and map writes are not flagged (the runtime ratchet governs those);
// interface dispatch, function values and the stdlib are not descended
// into; expressions building an error return value and arguments to panic
// are exempt — failure paths may allocate.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

type allocCheck struct{}

// NewAllocCheck returns the static hot-path allocation checker.
func NewAllocCheck() Checker { return allocCheck{} }

func (allocCheck) Name() string { return "allocheck" }

func (allocCheck) CheckModule(pkgs []*Package) []Finding {
	a := &allocWalker{
		idx:     indexModule(pkgs),
		cold:    map[*types.Func]bool{},
		visited: map[*types.Func]bool{},
		coldLn:  map[string]map[int]bool{},
	}
	for _, p := range pkgs {
		a.collectMarkers(p)
	}
	// Deterministic scan order: roots sorted by position.
	sort.Slice(a.roots, func(i, j int) bool {
		return posLess(a.roots[i].pkg.Fset.Position(a.roots[i].decl.Pos()),
			a.roots[j].pkg.Fset.Position(a.roots[j].decl.Pos()))
	})
	for _, r := range a.roots {
		a.walk(r.fn, r.fn.Name())
	}
	return a.findings
}

const (
	hotMarker  = "hotpath"
	coldMarker = "hotpath:cold"
)

type hotRoot struct {
	fn   *types.Func
	pkg  *Package
	decl *ast.FuncDecl
}

type allocWalker struct {
	idx      *moduleIndex
	roots    []hotRoot
	cold     map[*types.Func]bool
	coldLn   map[string]map[int]bool // file -> lines carrying a statement-level cold marker
	visited  map[*types.Func]bool
	findings []Finding
}

// markerKind classifies one comment line: "" (neither), hot, or cold.
func markerKind(line string) string {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return ""
	}
	switch fields[0] {
	case hotMarker:
		return hotMarker
	case coldMarker:
		return coldMarker
	}
	return ""
}

// collectMarkers finds hot roots, cold functions, and statement-level cold
// lines in one package.
func (a *allocWalker) collectMarkers(p *Package) {
	for _, file := range p.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if markerKind(text) != coldMarker {
					continue
				}
				// The marker covers the statement the comment is attached to:
				// the line after its comment group ends (a marker anywhere in
				// a multi-line comment block covers the statement below it)
				// and the marker's own line (trailing same-line comments).
				pos := p.Fset.Position(c.Pos())
				if a.coldLn[pos.Filename] == nil {
					a.coldLn[pos.Filename] = map[int]bool{}
				}
				a.coldLn[pos.Filename][pos.Line] = true
				a.coldLn[pos.Filename][p.Fset.Position(cg.End()).Line+1] = true
			}
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			hot, cold := false, false
			for _, c := range fd.Doc.List {
				switch markerKind(strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))) {
				case hotMarker:
					hot = true
				case coldMarker:
					cold = true
				}
			}
			if cold {
				a.cold[fn] = true
			} else if hot {
				a.roots = append(a.roots, hotRoot{fn: fn, pkg: p, decl: fd})
			}
		}
	}
}

// coldStmt reports whether a statement is covered by a cold marker: a
// trailing comment on its first line, or a comment block ending on the line
// directly above it.
func (a *allocWalker) coldStmt(p *Package, s ast.Stmt) bool {
	pos := p.Fset.Position(s.Pos())
	lines := a.coldLn[pos.Filename]
	return lines != nil && lines[pos.Line]
}

// walk scans fn's body and recurses into every statically resolvable
// module-local callee that is not marked cold.
func (a *allocWalker) walk(fn *types.Func, root string) {
	if a.visited[fn] || a.cold[fn] {
		return
	}
	a.visited[fn] = true
	fd, ok := a.idx.funcs[fn]
	if !ok {
		return
	}
	a.scanBody(fd.pkg, fd.decl.Body, fn, root)
}

func (a *allocWalker) report(p *Package, pos token.Pos, root, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	a.findings = append(a.findings, Finding{
		Pos:     p.Fset.Position(pos),
		Checker: "allocheck",
		Message: fmt.Sprintf("%s (hot path via %s)", msg, root),
	})
}

func (a *allocWalker) scanBody(p *Package, body *ast.BlockStmt, fn *types.Func, root string) {
	parents := parentMap(body)
	skip := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil || skip[n] {
			return false
		}
		if s, ok := n.(ast.Stmt); ok && a.coldStmt(p, s) {
			return false
		}
		switch x := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				if a.errorResult(p, res) {
					skip[res] = true // error construction: failure paths may allocate
				}
			}
		case *ast.FuncLit:
			if capt := a.captured(p, x); capt != "" {
				a.report(p, x.Pos(), root, "closure captures %s and allocates", capt)
			}
			return false
		case *ast.CompositeLit:
			switch p.Info.Types[x].Type.Underlying().(type) {
			case *types.Map:
				a.report(p, x.Pos(), root, "map literal allocates")
			case *types.Slice:
				a.report(p, x.Pos(), root, "slice literal allocates")
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if lit, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					a.report(p, x.Pos(), root, "&composite literal allocates")
					skip[lit] = true
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringType(p.Info.Types[x].Type) {
				a.report(p, x.Pos(), root, "string concatenation allocates")
			}
		case *ast.SelectorExpr:
			a.checkMethodValue(p, x, parents, root)
		case *ast.CallExpr:
			if a.checkCall(p, x, parents, fn, root) {
				return false
			}
		}
		return true
	})
}

// checkCall handles every call form; it returns true when the subtree has
// been fully handled and descent should stop.
func (a *allocWalker) checkCall(p *Package, call *ast.CallExpr, parents map[ast.Node]ast.Node, fn *types.Func, root string) bool {
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if bi, ok := p.Info.Uses[id].(*types.Builtin); ok {
			switch bi.Name() {
			case "make":
				if !growthGuarded(p, call, parents) {
					a.report(p, call.Pos(), root, "make outside the capacity-growth guard (grow only under an if cap(...) check)")
				}
			case "new":
				a.report(p, call.Pos(), root, "new allocates")
			case "append":
				if !selfAppend(call, parents) {
					a.report(p, call.Pos(), root, "append outside the arena-growth protocol (only x = append(x, ...) reusing capacity)")
				}
			case "panic":
				return true // failure path: the boxed argument only matters when crashing
			}
			return false
		}
	}

	// Conversions: string <-> []byte/[]rune copy.
	if tv := p.Info.Types[call.Fun]; tv.IsType() && len(call.Args) == 1 {
		dst, src := tv.Type.Underlying(), p.Info.Types[call.Args[0]].Type
		if src != nil {
			toString := isStringType(dst) && isByteish(src.Underlying())
			fromString := isByteish(dst) && isStringType(src.Underlying())
			if (toString || fromString) && p.Info.Types[call.Args[0]].Value == nil {
				a.report(p, call.Pos(), root, "string conversion allocates")
			}
		}
		return false
	}

	// fmt never belongs on the hot path.
	if callee := calledFunc(p, call); callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
		a.report(p, call.Pos(), root, "fmt.%s allocates", callee.Name())
		return false
	}

	a.checkBoxing(p, call, root)

	if _, callee, ok := a.idx.callee(p, call); ok {
		a.walk(callee, root)
	}
	return false
}

// checkBoxing flags non-constant concrete arguments passed to interface
// parameters: the conversion forces a heap allocation at the call site.
func (a *allocWalker) checkBoxing(p *Package, call *ast.CallExpr, root string) {
	sig, ok := p.Info.Types[call.Fun].Type.Underlying().(*types.Signature)
	if !ok || call.Ellipsis != token.NoPos {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, ok := pt.Underlying().(*types.Interface); !ok {
			continue
		}
		tv := p.Info.Types[arg]
		if tv.Type == nil || tv.Value != nil || isNilIdent(arg) {
			continue // constants and nil don't box at run time
		}
		if _, ok := tv.Type.Underlying().(*types.Interface); ok {
			continue // interface-to-interface: no box
		}
		a.report(p, arg.Pos(), root, "argument %s boxes into an interface parameter", types.ExprString(arg))
	}
}

// checkMethodValue flags x.M used as a value: binding the receiver allocates
// a closure. Package-qualified functions and method expressions (T.M) are
// static and free.
func (a *allocWalker) checkMethodValue(p *Package, sel *ast.SelectorExpr, parents map[ast.Node]ast.Node, root string) {
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return
	}
	parent := parents[sel]
	for {
		pe, ok := parent.(*ast.ParenExpr)
		if !ok {
			break
		}
		parent = parents[pe]
	}
	if call, ok := parent.(*ast.CallExpr); ok && ast.Unparen(call.Fun) == sel {
		return // ordinary method call
	}
	// Method expression T.M: the "receiver" is a type name.
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		if _, isType := p.Info.Uses[id].(*types.TypeName); isType {
			return
		}
	}
	a.report(p, sel.Pos(), root, "method value %s binds its receiver and allocates", types.ExprString(sel))
}

// errorResult reports whether the expression is a non-nil error return
// value.
func (a *allocWalker) errorResult(p *Package, e ast.Expr) bool {
	if isNilIdent(e) {
		return false
	}
	t := p.Info.Types[e].Type
	return t != nil && t.String() == "error"
}

// captured names the first variable a function literal captures from its
// enclosing function, or "" if it captures nothing.
func (a *allocWalker) captured(p *Package, lit *ast.FuncLit) string {
	name := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == types.Universe || v.Parent() == p.Pkg.Scope() {
			return true // package-level state is shared, not captured
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			name = v.Name()
		}
		return true
	})
	return name
}

// growthGuarded reports whether a make call sits under an if statement whose
// condition (or init) consults cap(): the arena/scratch amortized-growth
// protocol, where the allocation happens only when capacity has run out.
func growthGuarded(p *Package, call *ast.CallExpr, parents map[ast.Node]ast.Node) bool {
	for n := parents[call]; n != nil; n = parents[n] {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			continue
		}
		for _, part := range []ast.Node{ifs.Init, ifs.Cond} {
			if part == nil {
				continue
			}
			found := false
			ast.Inspect(part, func(m ast.Node) bool {
				if c, ok := m.(*ast.CallExpr); ok {
					if id, ok := ast.Unparen(c.Fun).(*ast.Ident); ok {
						if bi, ok := p.Info.Uses[id].(*types.Builtin); ok && bi.Name() == "cap" {
							found = true
						}
					}
				}
				return !found
			})
			if found {
				return true
			}
		}
	}
	return false
}

// selfAppend reports whether the append call is the canonical in-place form
// x = append(x, ...), which never allocates while capacity lasts.
func selfAppend(call *ast.CallExpr, parents map[ast.Node]ast.Node) bool {
	if len(call.Args) == 0 {
		return false
	}
	as, ok := parents[call].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != len(as.Rhs) {
		return false
	}
	for i, rhs := range as.Rhs {
		if ast.Unparen(rhs) == call {
			return types.ExprString(as.Lhs[i]) == types.ExprString(call.Args[0])
		}
	}
	return false
}

func isStringType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isByteish reports []byte or []rune.
func isByteish(t types.Type) bool {
	sl, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// parentMap records every node's parent within body.
func parentMap(body *ast.BlockStmt) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
