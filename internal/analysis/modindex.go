package analysis

// modindex.go maps every function and method declared in the analyzed
// packages to its declaration, so static call chains can be followed across
// package boundaries: by lockcheck's summary fixpoint and by allocheck's walk
// from its "// hotpath" roots. Anything outside the index — stdlib, interface
// methods, function values — is a traversal boundary.

import (
	"go/ast"
	"go/types"
)

type funcDecl struct {
	pkg  *Package
	decl *ast.FuncDecl
}

type moduleIndex struct {
	funcs map[*types.Func]funcDecl
}

func indexModule(pkgs []*Package) *moduleIndex {
	idx := &moduleIndex{funcs: make(map[*types.Func]funcDecl)}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					idx.funcs[obj] = funcDecl{pkg: p, decl: fd}
				}
			}
		}
	}
	return idx
}

// calledFunc resolves the static callee of a call, if it is a declared
// function or method.
func calledFunc(p *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// callee resolves call to a function declared in the module, or ok=false at
// a traversal boundary (stdlib, builtins, interface dispatch through a
// method with no body here, function-typed values).
func (idx *moduleIndex) callee(p *Package, call *ast.CallExpr) (funcDecl, *types.Func, bool) {
	fn := calledFunc(p, call)
	if fn == nil {
		return funcDecl{}, nil, false
	}
	fd, ok := idx.funcs[fn]
	return fd, fn, ok
}
