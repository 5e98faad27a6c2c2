package analyze

import (
	"go/ast"
	"go/types"
)

// MapOrderConfig parameterizes the maporder analyzer; production code
// uses the detrand package set (the rule guards the same replay
// contract).
type MapOrderConfig struct {
	// Packages lists the package paths the rule applies to.
	Packages []string
	// RNGImport extends the rule to seeded-stream consumers, exactly as
	// in DetRandConfig.
	RNGImport string
}

// DefaultMapOrderConfig applies the rule to the same packages detrand
// treats as deterministic.
func DefaultMapOrderConfig() MapOrderConfig {
	d := DefaultDetRandConfig()
	return MapOrderConfig{Packages: d.Core, RNGImport: d.RNGImport}
}

// NewMapOrder returns the map-iteration-order analyzer for cfg.
//
// `for range` over a map is the canonical replay-divergence source: the
// iteration order differs run to run by language design, so any map
// range in a step or apply path can reorder guard evaluations, ledger
// accumulation or journal writes between two runs of the same seed. The
// analyzer flags every map range in the deterministic packages except:
//
//   - loops that only collect keys into a slice (the order is then
//     fixed by the sort that must follow before use);
//   - bare `for range m` loops that bind neither key nor value (the
//     body cannot observe the order);
//   - loops annotated //selfstab:orderinvariant <why>.
func NewMapOrder(cfg MapOrderConfig) *Analyzer {
	a := &Analyzer{
		Name: "maporder",
		Doc: "flag `for range` over maps in deterministic packages unless the loop " +
			"provably ignores order (key collection, bare range) or carries a " +
			"//selfstab:orderinvariant annotation.",
	}
	pkgs := make(map[string]bool, len(cfg.Packages))
	for _, p := range cfg.Packages {
		pkgs[p] = true
	}
	a.Run = func(pass *Pass) error {
		for _, pkg := range pass.Pkgs {
			if pkgs[pkg.Types.Path()] || imported(pkg.Types, cfg.RNGImport) != nil {
				checkMapOrder(pass, pkg)
			}
		}
		return nil
	}
	return a
}

// checkMapOrder reports pkg's map ranges that may observe the iteration
// order.
func checkMapOrder(pass *Pass, pkg *Package) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pkg.Info.Types[rs.X].Type
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if rs.Key == nil && rs.Value == nil {
				return true // body cannot see the iteration order
			}
			if pkg.anns.ranges[rs] || isKeyCollectionLoop(pkg.Info, rs) {
				return true
			}
			pass.Reportf(rs.Pos(), "map iteration order is nondeterministic in deterministic package %s; sort the keys before use or annotate //selfstab:orderinvariant <why>", pkg.Types.Path())
			return true
		})
	}
}

// isKeyCollectionLoop recognizes the one loop shape that is safe without
// an annotation: a body that only appends the key to a slice
// (`keys = append(keys, k)`), because any use of that slice must sort it
// first — and maporder still guards the use sites.
func isKeyCollectionLoop(info *types.Info, rs *ast.RangeStmt) bool {
	if rs.Value != nil || rs.Key == nil {
		return false
	}
	keyID, ok := rs.Key.(*ast.Ident)
	if !ok {
		return false
	}
	if len(rs.Body.List) != 1 {
		return false
	}
	assign, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 || call.Ellipsis.IsValid() {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	if b, ok := info.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	if !ok || arg.Name != keyID.Name {
		return false
	}
	lhs, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	dst, ok := call.Args[0].(*ast.Ident)
	return ok && lhs.Name == dst.Name
}
