package analyze

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// NewTestOnly returns the analyzer that finds exported code nothing but
// tests uses, in the module whose path is module.
//
// It reports every exported function, method, type, const or var
// declared in a package whose import path has an `internal` element —
// exported there means visible to nothing outside the module — and
// every exported function and method of the module's root package (its
// public API; root types and consts stay out, because they name values
// of public record fields declared under internal/), that no non-test
// file of the loaded packages references. The loader parses non-test
// files only, so a use in a _test.go file is invisible by construction,
// and a name only tests reach is reported. Such a name is deleted, or
// carries //selfstab:testref <the test contract it serves> when a test
// compares against it; a testref on a name non-test code does reference
// is reported too, so annotations do not outlive their reason.
//
// Uses are keyed by package path, receiver type and name, because each
// package is type-checked against its imports' export data and the same
// declaration is a different types.Object in every importer. A method
// counts as referenced when a same-named method of an interface declared
// in the module is referenced anywhere (dynamic dispatch), or when it is
// one the standard library calls through fmt, encoding or reflection:
// String, Error and the Marshal/Unmarshal pairs. A call through any other
// standard-library interface (types.Object's Name, say) keeps nothing
// alive. A declaration's references to itself, a method's receiver type
// and a `var _ I = T{}` assertion are not uses.
//
// The rule is whole-program: it needs every importer loaded, so it is
// meaningful over the whole program only (selfstab-lint's default), and
// reports once Run has seen every package.
func NewTestOnly(module string) *Analyzer {
	inModule := func(path string) bool { return path == module || strings.HasPrefix(path, module+"/") }
	a := &Analyzer{
		Name: "testonly",
		Doc: "report exported names of internal/ packages, and root functions and methods, that only tests reference; " +
			"delete them, or annotate //selfstab:testref <why> (whole-program).",
	}
	a.Run = func(pass *Pass) error {
		type decl struct {
			obj       types.Object
			key, name string
			ann       *annotation
		}
		var decls []decl
		used := make(map[string]bool)
		// dispatched holds the method names a call may reach without
		// naming the method's type.
		dispatched := map[string]bool{"String": true, "Error": true, "MarshalText": true,
			"UnmarshalText": true, "MarshalJSON": true, "UnmarshalJSON": true}
		for _, pkg := range pass.Pkgs {
			path := pkg.Types.Path()
			internal := slices.Contains(strings.Split(path, "/"), "internal")
			root := path == module
			declare := func(id *ast.Ident, ann *annotation) {
				obj := pkg.Info.Defs[id]
				if _, fn := obj.(*types.Func); obj != nil && obj.Exported() && (internal || root && fn) {
					key := objKey(obj)
					decls = append(decls, decl{obj, key, strings.ReplaceAll(key, path, pkg.Types.Name()), ann})
				}
			}
			// mark records every reference under n except those to self.
			mark := func(n ast.Node, self ...*ast.Ident) {
				ast.Inspect(n, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					obj := pkg.Info.Uses[id]
					if !ok || obj == nil || slices.ContainsFunc(self, func(s *ast.Ident) bool { return pkg.Info.Defs[s] == obj }) {
						return true
					}
					if recv := recvOf(obj); recv != nil && types.IsInterface(recv.Type()) && obj.Pkg() != nil && inModule(obj.Pkg().Path()) {
						dispatched[obj.Name()] = true
					}
					used[objKey(obj)] = true
					return true
				})
			}
			for _, f := range pkg.Files {
				for _, d := range f.Decls {
					switch d := d.(type) {
					case *ast.FuncDecl:
						declare(d.Name, pkg.anns.fn(d, "testref"))
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
								declare(id, pkg.anns.spec(s, "testref"))
							}
							mark(s, names...)
						}
					}
				}
			}
		}
		for _, d := range decls {
			ref := used[d.key] || recvOf(d.obj) != nil && dispatched[d.obj.Name()]
			switch {
			case !ref && d.ann == nil:
				pass.Reportf(d.obj.Pos(), "%s is exported but only tests reference it: delete it, or annotate //selfstab:testref <the test contract it serves>", d.name)
			case ref && d.ann != nil:
				pass.Reportf(d.ann.pos, "//selfstab:testref on %s, which non-test code references: drop the annotation", d.name)
			}
		}
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
