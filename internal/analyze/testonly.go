package analyze

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// NewTestOnly returns the analyzer that finds exported code nothing but
// tests uses.
//
// It reports every exported function, method, type, const or var
// declared in a package whose import path has an `internal` element —
// exported there means visible to nothing outside the module — that no
// non-test file of the loaded packages references. The loader parses
// non-test files only, so a use in a _test.go file is invisible by
// construction, and a name only tests reach is reported. Such a name is
// deleted, or carries //selfstab:testref <the test contract it serves>
// when a test compares against it; a testref on a name that non-test
// code does reference is reported too, so annotations do not outlive
// their reason.
//
// Uses are keyed by package path, receiver type and name, because each
// package is type-checked against its imports' export data and the same
// declaration is a different types.Object in every importer. A method
// counts as referenced when a same-named method of any interface is
// referenced anywhere (dynamic dispatch), or when it is one the standard
// library calls through fmt, encoding or reflection: String, Error and
// the Marshal/Unmarshal pairs. A declaration's references to itself, a
// method's receiver type and a `var _ I = T{}` assertion are not uses.
//
// The rule is whole-program: it needs every importer loaded, so it is
// meaningful over ./... only, and reports from Finish.
func NewTestOnly() *Analyzer {
	type decl struct {
		obj       types.Object
		key, name string
		ann       *annotation
	}
	var (
		decls []decl
		used  map[string]bool
		// dispatched holds the method names a call may reach without
		// naming the method's type.
		dispatched map[string]bool
	)
	reset := func() {
		decls, used = nil, make(map[string]bool)
		dispatched = map[string]bool{"String": true, "Error": true, "MarshalText": true,
			"UnmarshalText": true, "MarshalJSON": true, "UnmarshalJSON": true}
	}
	reset()
	a := &Analyzer{
		Name: "testonly",
		Doc: "report exported names of internal/ packages that only tests reference; " +
			"delete them, or annotate //selfstab:testref <why> (whole-program: run over ./...).",
	}
	a.Run = func(pass *Pass) error {
		internal := slices.Contains(strings.Split(pass.Pkg.Path(), "/"), "internal")
		anns := scanAnnotations(pass)
		declare := func(id *ast.Ident, ann *annotation) {
			if obj := pass.Info.Defs[id]; internal && obj != nil && obj.Exported() {
				key := objKey(obj)
				name := strings.ReplaceAll(key, pass.Pkg.Path(), pass.Pkg.Name())
				decls = append(decls, decl{obj, key, name, ann})
			}
		}
		// mark records every reference under n except those to self.
		mark := func(n ast.Node, self ...*ast.Ident) {
			ast.Inspect(n, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				obj := pass.Info.Uses[id]
				if !ok || obj == nil || slices.ContainsFunc(self, func(s *ast.Ident) bool { return pass.Info.Defs[s] == obj }) {
					return true
				}
				if recv := recvOf(obj); recv != nil && types.IsInterface(recv.Type()) {
					dispatched[obj.Name()] = true
				}
				used[objKey(obj)] = true
				return true
			})
		}
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					declare(d.Name, anns.fn(d, "testref"))
					mark(d.Type, d.Name)
					if d.Body != nil {
						mark(d.Body, d.Name)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						var names []*ast.Ident
						switch s := s.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							if s.Type != nil && !slices.ContainsFunc(s.Names, func(id *ast.Ident) bool { return id.Name != "_" }) {
								continue // var _ I = T{}: an assertion, not a use
							}
							names = s.Names
						default:
							continue
						}
						for _, id := range names {
							declare(id, anns.spec(s, "testref"))
						}
						mark(s, names...)
					}
				}
			}
		}
		return nil
	}
	a.Finish = func(pass *Pass) error {
		for _, d := range decls {
			ref := used[d.key] || recvOf(d.obj) != nil && dispatched[d.obj.Name()]
			switch {
			case !ref && d.ann == nil:
				pass.Reportf(d.obj.Pos(), "%s is exported but only tests reference it: delete it, or annotate //selfstab:testref <the test contract it serves>", d.name)
			case ref && d.ann != nil:
				pass.Reportf(d.ann.pos, "//selfstab:testref on %s, which non-test code references: drop the annotation", d.name)
			}
		}
		reset()
		return nil
	}
	return a
}

// objKey names a function, a method or a package-level object the same
// way in every type-check that sees it: "path.Name", or
// "(*path.Recv).Name" for a method. Locals and fields share the empty
// key, which no declaration has.
func objKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin().FullName()
	}
	if obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// recvOf returns the receiver of a method, nil for anything else.
func recvOf(obj types.Object) *types.Var {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Type().(*types.Signature).Recv()
	}
	return nil
}
