package analyze

import (
	"go/ast"
	"go/token"
	"go/types"
)

// funcRef is one static reference to a function or method inside a
// function body.
type funcRef struct {
	fn  *types.Func
	pos token.Pos
}

// callGraph is one package's static call graph: for each function
// declared with a body, its function and method references in source
// order. References inside closures belong to the enclosing declaration,
// which is conservative: the closure can run whenever the function does.
type callGraph struct {
	pkg  *types.Package
	refs map[*types.Func][]funcRef
}

func newCallGraph(pkg *Package) *callGraph {
	g := &callGraph{pkg: pkg.Types, refs: make(map[*types.Func][]funcRef)}
	forEachFuncDecl(pkg, func(decl *ast.FuncDecl, fn *types.Func) {
		if decl.Body != nil {
			g.refs[fn] = funcRefs(pkg.Info, decl.Body)
		}
	})
	return g
}

// funcRefs lists the static function and method references under body in
// source order: a method once, at its selector expression, any other
// function at its identifier.
func funcRefs(info *types.Info, body ast.Node) []funcRef {
	var refs []funcRef
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if _, ok := info.Selections[n]; ok {
				if fn := staticFunc(info, n); fn != nil {
					refs = append(refs, funcRef{fn, n.Pos()})
					ast.Inspect(n.X, visit)
					return false
				}
			}
		case *ast.Ident:
			if fn := staticFunc(info, n); fn != nil {
				refs = append(refs, funcRef{fn, n.Pos()})
			}
		}
		return true
	}
	ast.Inspect(body, visit)
	return refs
}

// staticFunc resolves e, parentheses aside, to the function or method it
// names, or nil for a func value, a builtin or a type.
func staticFunc(info *types.Info, e ast.Expr) *types.Func {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}

// reach returns the package's functions reachable from roots: the roots
// first, then breadth-first in reference order. The walk never enters a
// callee for which stop, if set, reports true.
func (g *callGraph) reach(roots []*types.Func, stop func(*types.Func) bool) []*types.Func {
	seen := make(map[*types.Func]bool)
	var out []*types.Func
	for _, fn := range roots {
		if !seen[fn] {
			seen[fn] = true
			out = append(out, fn)
		}
	}
	for i := 0; i < len(out); i++ {
		for _, r := range g.refs[out[i]] {
			if r.fn.Pkg() != g.pkg || seen[r.fn] || stop != nil && stop(r.fn) {
				continue
			}
			seen[r.fn] = true
			out = append(out, r.fn)
		}
	}
	return out
}

// forEachFuncDecl invokes fn for every declared function or method of
// pkg, in file order.
func forEachFuncDecl(pkg *Package, fn func(*ast.FuncDecl, *types.Func)) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fn(fd, obj)
		}
	}
}

// imported returns the package pkg imports directly under path, or nil.
func imported(pkg *types.Package, path string) *types.Package {
	for _, imp := range pkg.Imports() {
		if imp.Path() == path {
			return imp
		}
	}
	return nil
}
