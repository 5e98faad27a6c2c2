package analyze

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// JournalChokeConfig parameterizes the journalchoke analyzer;
// production code uses DefaultJournalChokeConfig.
type JournalChokeConfig struct {
	// PkgPath is the package holding the journaled world type.
	PkgPath string
	// TypeName is the world type whose exported methods are checked.
	TypeName string
	// Choke names the journaling chokepoint method: a method of
	// TypeName whose subtree is, by construction, where journaled
	// mutation happens. Reaching a mutation through it is legal;
	// reaching a mutation around it is the bug.
	Choke string
}

// DefaultJournalChokeConfig pins this repo's snapshot/replay contract:
// every exported (*selfstab.Network) mutator routes through applyOp.
func DefaultJournalChokeConfig() JournalChokeConfig {
	return JournalChokeConfig{PkgPath: "selfstab", TypeName: "Network", Choke: "applyOp"}
}

// NewJournalChoke returns the journal-chokepoint analyzer for cfg.
//
// The snapshot/replay contract (journal.go) holds only if the op
// journal is complete: every exported method of the world type that
// changes the world's trajectory must dispatch through the chokepoint,
// where the op is validated and recorded. The analyzer enforces this
// with call-graph reachability:
//
//  1. Engine packages annotate their trajectory-changing entry points
//     //selfstab:mutator; journalchoke collects them from every loaded
//     package.
//  2. For each exported method on the world type it walks the static
//     intra-package call graph, NOT descending into the chokepoint
//     (whose subtree is journaled by construction).
//  3. If the walk reaches a marked mutator call, or a store to a field
//     of the world type not annotated //selfstab:cache, the method is
//     mutating the world outside the journal — a diagnostic, unless
//     the method is annotated //selfstab:unjournaled <why> (the escape
//     for performance knobs, which replay reproduces without ops).
//
// A method of the world type annotated //selfstab:unjournaled is a
// vetted subtree: the walk does not descend into it, exactly like the
// chokepoint. That is how deliberately-unjournaled interior helpers
// (auto-compaction, which replay reproduces as a deterministic
// consequence of journaled ops) stay out of every caller's report
// without suppressing the callers themselves.
func NewJournalChoke(cfg JournalChokeConfig) *Analyzer {
	a := &Analyzer{
		Name: "journalchoke",
		Doc: "require every exported mutating method of the journaled world type to " +
			"dispatch through the journal chokepoint, so snapshot replay stays complete " +
			"by construction.",
	}
	a.Run = func(pass *Pass) error {
		// Mutators are keyed by full name: each package is type-checked
		// against its imports' export data, so the same method is a
		// different types.Func in every package that sees it.
		mutators := map[string]bool{}
		var worldPkg *Package
		for _, pkg := range pass.Pkgs {
			forEachFuncDecl(pkg, func(decl *ast.FuncDecl, fn *types.Func) {
				if pkg.anns.fn(decl, "mutator") != nil {
					mutators[fn.FullName()] = true
				}
			})
			if pkg.Types.Path() == cfg.PkgPath {
				worldPkg = pkg
			}
		}
		if worldPkg == nil {
			return nil
		}
		return checkJournal(pass, worldPkg, cfg, mutators)
	}
	return a
}

// checkJournal reports each exported method of the world type in pkg
// that reaches a mutation without passing the chokepoint.
func checkJournal(pass *Pass, pkg *Package, cfg JournalChokeConfig, mutators map[string]bool) error {
	world := lookupNamedType(pkg.Types, cfg.TypeName)
	if world == nil {
		return fmt.Errorf("journalchoke: type %s.%s not found", cfg.PkgPath, cfg.TypeName)
	}
	cacheSet := cacheFields(pkg, world)
	g := newCallGraph(pkg)
	sites := map[*types.Func]string{}
	exempt := map[*types.Func]bool{}
	var chokeFn *types.Func
	forEachFuncDecl(pkg, func(decl *ast.FuncDecl, fn *types.Func) {
		if site := firstMutation(pass.Fset, pkg.Info, decl, g.refs[fn], world, mutators, cacheSet); site != "" {
			sites[fn] = site
		}
		if pkg.anns.fn(decl, "unjournaled") != nil {
			exempt[fn] = true
		}
		if fn.Name() == cfg.Choke && receiverIs(fn, world) {
			chokeFn = fn
		}
	})
	if chokeFn == nil {
		pass.Reportf(pkg.Files[0].Pos(), "journal chokepoint (*%s).%s not found: the snapshot/replay contract has no enforcement point (renamed without updating the lint config?)", cfg.TypeName, cfg.Choke)
		return nil
	}
	stop := func(fn *types.Func) bool { return fn == chokeFn || exempt[fn] }
	forEachFuncDecl(pkg, func(decl *ast.FuncDecl, fn *types.Func) {
		if !fn.Exported() || !receiverIs(fn, world) || stop(fn) {
			return
		}
		for _, reached := range g.reach([]*types.Func{fn}, stop) {
			site, ok := sites[reached]
			if !ok {
				continue
			}
			if reached != fn {
				site = "via " + reached.Name() + ": " + site
			}
			pass.Reportf(decl.Name.Pos(),
				"exported method (*%s).%s mutates world state without the %s journal chokepoint (%s); route the mutation through %s or annotate //selfstab:unjournaled <why>",
				cfg.TypeName, fn.Name(), cfg.Choke, site, cfg.Choke)
			return
		}
	})
	return nil
}

// firstMutation describes where decl changes world state: its first
// call to a mutator among its references refs, or else its first store
// to a world field not annotated //selfstab:cache, each in source order.
// It returns "" when decl changes nothing.
func firstMutation(fset *token.FileSet, info *types.Info, decl *ast.FuncDecl, refs []funcRef, world *types.Named, mutators map[string]bool, cacheSet map[string]bool) string {
	for _, r := range refs {
		if mutators[r.fn.FullName()] {
			return "call to " + r.fn.FullName() + " at " + fset.Position(r.pos).String()
		}
	}
	desc := ""
	store := func(lhs ast.Expr) {
		if field := worldField(info, lhs, world); desc == "" && field != "" && !cacheSet[field] {
			desc = "store to " + world.Obj().Name() + "." + field + " at " + fset.Position(lhs.Pos()).String()
		}
	}
	if decl.Body != nil {
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					store(lhs)
				}
			case *ast.IncDecStmt:
				store(n.X)
			}
			return true
		})
	}
	return desc
}

// worldField returns the first field hop of lhs when lhs writes through
// a value of the world type (a selector or index chain rooted at a
// *World/World variable), and "" otherwise.
func worldField(info *types.Info, lhs ast.Expr, world *types.Named) string {
	firstField := ""
	expr := lhs
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SelectorExpr:
			firstField = e.Sel.Name
			expr = e.X
		case *ast.Ident:
			t := info.Types[e].Type
			if t == nil {
				if obj := info.Uses[e]; obj != nil {
					t = obj.Type()
				}
			}
			if t == nil {
				return ""
			}
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); !ok || named.Obj() != world.Obj() {
				return ""
			}
			return firstField
		default:
			return ""
		}
	}
}

// cacheFields returns the set of world-struct field names annotated
// //selfstab:cache.
func cacheFields(pkg *Package, world *types.Named) map[string]bool {
	m := map[string]bool{}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != world.Obj().Name() {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if pkg.anns.field(field, "cache") != nil {
					for _, name := range field.Names {
						m[name.Name] = true
					}
				}
			}
			return true
		})
	}
	return m
}

// lookupNamedType resolves a named type declared in pkg.
func lookupNamedType(pkg *types.Package, name string) *types.Named {
	obj := pkg.Scope().Lookup(name)
	if obj == nil {
		return nil
	}
	named, _ := obj.Type().(*types.Named)
	return named
}

// receiverIs reports whether fn is a method with receiver type named
// (or pointer to it).
func receiverIs(fn *types.Func, named *types.Named) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj() == named.Obj()
}
