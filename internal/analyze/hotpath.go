package analyze

import (
	"go/ast"
	"go/types"
)

// NewHotPath returns the allocation-site analyzer.
//
// Functions annotated //selfstab:hotpath are the step-path leaves the
// allocation benchmarks pin at 0 allocs/op steady state (frontier
// ingest/guards, traffic forward, energy commit, halo merge). The
// analyzer statically rejects the incidental allocation sites inside
// them — the constructs that allocate on every execution regardless of
// state:
//
//   - any call into package fmt (formatting always allocates);
//   - map or slice composite literals;
//   - function literals (an unhoisted closure is an allocation the
//     moment it captures state and escapes; hoist it to a named
//     method);
//   - conversions of concrete values to interface types, explicit or
//     implicit (boxing allocates for non-pointer kinds).
//
// Deliberate, state-gated allocations (publish-on-change `make`, arena
// growth) stay legal: the benchmarks own amortized cost, the analyzer
// owns per-call cost. Cold error paths belong in small unannotated
// helper functions — the rule is intentionally not transitive, so a
// hot function may call a cold one, and the call is visible in review.
func NewHotPath() *Analyzer {
	a := &Analyzer{
		Name: "hotpath",
		Doc: "forbid obvious per-call allocation sites (fmt calls, map/slice literals, " +
			"closures, interface boxing) inside functions annotated //selfstab:hotpath.",
	}
	a.Run = func(pass *Pass) error {
		for _, pkg := range pass.Pkgs {
			forEachFuncDecl(pkg, func(decl *ast.FuncDecl, fn *types.Func) {
				if pkg.anns.fn(decl, "hotpath") != nil && decl.Body != nil {
					checkHotBody(pass, pkg.Info, fn.Name(), decl.Body)
				}
			})
		}
		return nil
	}
	return a
}

func checkHotBody(pass *Pass, info *types.Info, name string, body *ast.BlockStmt) {
	report := func(n ast.Node, format string, args ...any) {
		pass.Reportf(n.Pos(), "hotpath function %s: "+format, append([]any{name}, args...)...)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n, "closure literal allocates when it escapes; hoist it to a named method")
			return false // its body is cold by definition once hoisting is required
		case *ast.CompositeLit:
			t := info.Types[n].Type
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map:
				report(n, "map literal allocates on every execution")
			case *types.Slice:
				report(n, "slice literal allocates on every execution")
			}
		case *ast.CallExpr:
			checkHotCall(info, report, n)
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					checkBoxing(info, report, n.Rhs[i], info.Types[n.Lhs[i]].Type)
				}
			}
		}
		return true
	})
}

// checkHotCall flags fmt calls, explicit interface conversions, and
// implicit concrete-to-interface argument boxing.
func checkHotCall(info *types.Info, report func(ast.Node, string, ...any), call *ast.CallExpr) {
	tv := info.Types[call.Fun]
	// Explicit conversion: T(x) where T is an interface type.
	if tv.IsType() {
		if len(call.Args) == 1 {
			checkBoxing(info, report, call.Args[0], tv.Type)
		}
		return
	}
	if fn := staticFunc(info, call.Fun); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		report(call, "call to fmt.%s allocates; move error/formatting to a cold helper", fn.Name())
		return
	}
	// Implicit boxing at the call boundary, calls through func values
	// included.
	if tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // passing a slice through, no boxing
			}
			pt = params.At(params.Len() - 1).Type()
			if s, ok := pt.(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		checkBoxing(info, report, arg, pt)
	}
}

// checkBoxing reports expr if it is a concrete (non-interface, typed,
// non-nil) value being placed into an interface-typed slot.
func checkBoxing(info *types.Info, report func(ast.Node, string, ...any), expr ast.Expr, dst types.Type) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return
	}
	if tv.IsNil() || types.IsInterface(tv.Type) {
		return
	}
	b, isBasic := tv.Type.Underlying().(*types.Basic)
	if isBasic && b.Info()&types.IsUntyped != 0 {
		return
	}
	report(expr, "%s value converted to interface %s allocates (boxing)", tv.Type.String(), dst.String())
}
