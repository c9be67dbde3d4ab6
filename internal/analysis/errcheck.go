package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// errCheck is a deliberately small errcheck: inside the storage engine a
// swallowed error is silent data loss (a failed WritePage that nobody sees
// leaves a segment that fails its checksum at the next open), so a bare call
// statement whose results include an error is a finding — the error vanished
// without anyone deciding to drop it.
//
// Explicitly assigning the error to the blank identifier ("_ = f.Close()")
// is the sanctioned escape hatch: the discard is visible in the source and
// survives code review, which is the property this checker exists to
// protect. go/defer statements are also exempt — they cannot consume
// results, and forcing wrapper closures everywhere hurts more than it helps.
// Writes into in-memory sinks (strings.Builder, bytes.Buffer, including via
// fmt.Fprint*) are exempt too: their error results are documented to always
// be nil. So is best-effort terminal output — fmt.Print* (stdout) and
// fmt.Fprint* aimed directly at os.Stdout or os.Stderr: a CLI has no
// recovery for a broken terminal pipe, and the error carries no data-loss
// risk. The same fmt.Fprint* into a file or unknown io.Writer stays a
// finding.
//
// The checker is scoped by import-path prefix: the production suite runs it
// over internal/sqldb (storage engine: a swallowed error is data loss),
// internal/obs, internal/serve (a swallowed error becomes a wrong HTTP
// status), and the cmd/ binaries (see Checkers), so the rest of the module
// keeps idiomatic latitude.
type errCheck struct {
	prefixes []string
}

// NewErrCheck returns the errcheck checker scoped to packages whose import
// path equals or is under one of the given prefixes. With no prefixes every
// package is checked (used by the golden tests).
func NewErrCheck(prefixes ...string) Checker { return errCheck{prefixes: prefixes} }

func (errCheck) Name() string { return "errcheck" }

func (c errCheck) inScope(path string) bool {
	if len(c.prefixes) == 0 {
		return true
	}
	for _, prefix := range c.prefixes {
		if path == prefix || strings.HasPrefix(path, prefix+"/") {
			return true
		}
	}
	return false
}

func (c errCheck) Check(p *Package) []Finding {
	if !c.inScope(p.Path) {
		return nil
	}
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.ExprStmt:
				if call, ok := x.X.(*ast.CallExpr); ok && returnsError(p, call) && !neverFails(p, call) {
					out = append(out, Finding{
						Pos:     p.Fset.Position(x.Pos()),
						Checker: c.Name(),
						Message: fmt.Sprintf("error result of %s is discarded (assign it, or make the discard explicit with _ =)", callDisplayName(call)),
					})
				}
				return false
			case *ast.GoStmt, *ast.DeferStmt:
				return false
			}
			return true
		})
	}
	return out
}

// returnsError reports whether any of call's results is an error.
func returnsError(p *Package, call *ast.CallExpr) bool {
	tv, ok := p.Info.Types[call]
	if !ok {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(tv.Type)
	}
}

// neverFails reports calls whose error result is documented to always be
// nil: methods on strings.Builder / bytes.Buffer, and fmt.Fprint* writing
// into one of those.
func neverFails(p *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if fn, ok := p.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		if strings.HasPrefix(fn.Name(), "Print") {
			return true // stdout: best-effort terminal output
		}
		if strings.HasPrefix(fn.Name(), "Fprint") && len(call.Args) > 0 {
			if isStdStream(p, call.Args[0]) {
				return true
			}
			if tv, ok := p.Info.Types[call.Args[0]]; ok {
				return isInMemoryWriter(tv.Type)
			}
		}
		return false
	}
	if tv, ok := p.Info.Types[sel.X]; ok {
		return isInMemoryWriter(tv.Type)
	}
	return false
}

// isStdStream reports whether the expression is exactly os.Stdout or
// os.Stderr — the two writers whose failed writes a CLI cannot act on.
func isStdStream(p *Package, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	v, ok := p.Info.Uses[sel.Sel].(*types.Var)
	if !ok || v.Pkg() == nil || v.Pkg().Path() != "os" {
		return false
	}
	return v.Name() == "Stdout" || v.Name() == "Stderr"
}

func isInMemoryWriter(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() + "." + obj.Name() {
	case "strings.Builder", "bytes.Buffer":
		return true
	}
	return false
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// callDisplayName renders the callee for diagnostics: pkg.F, recv.M, or F.
func callDisplayName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return types.ExprString(fun)
	}
	return "call"
}
