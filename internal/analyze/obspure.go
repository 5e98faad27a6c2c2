package analyze

import (
	"go/ast"
	"go/types"
)

// ObsPureConfig parameterizes the obspure analyzer; production code uses
// DefaultObsPureConfig.
type ObsPureConfig struct {
	// ObsPkg is the instrumentation package declaring the probe
	// interface.
	ObsPkg string
	// Iface is the probe interface name within ObsPkg. Its method set
	// defines the callbacks whose bodies must be pure observers.
	Iface string
	// Core lists the deterministic engine packages: probe callbacks must
	// never call into them or store to their package-level state, and
	// their step-path code must never read observation state back.
	Core []string
}

// DefaultObsPureConfig pins this repo's observation contract: obs.Probe
// implementations observe the engine core, never steer it.
func DefaultObsPureConfig() ObsPureConfig {
	return ObsPureConfig{
		ObsPkg: "selfstab/internal/obs",
		Iface:  "Probe",
		Core: []string{
			"selfstab",
			"selfstab/internal/runtime",
			"selfstab/internal/traffic",
			"selfstab/internal/energy",
		},
	}
}

// NewObsPure returns the probe-purity analyzer for cfg.
//
// The instrumentation layer's determinism contract (obs package doc) has
// two directions, and this analyzer enforces both statically:
//
//  1. Probes are pure observers. A probe callback runs inside the step
//     path with the world mid-mutation; if it calls back into an engine
//     package, or stores to engine package-level state, the traced run's
//     trajectory can diverge from the untraced twin — precisely the bug
//     the tracing-determinism oracle exists to catch, found at review
//     time instead. Every method of a type implementing the probe
//     interface that belongs to the interface's method set is checked.
//
//  2. The engine is write-only toward the probe. Step-path code
//     (functions reachable from a //selfstab:mutator or
//     //selfstab:hotpath annotation within a core package) may emit
//     observations but must never read them back: a value-returning call
//     into the obs package from the step path means observation state is
//     feeding the trajectory. Constructors and export paths (serve, the
//     CLI, Network.WriteTrace) read collectors freely — they are not
//     step-path code.
func NewObsPure(cfg ObsPureConfig) *Analyzer {
	a := &Analyzer{
		Name: "obspure",
		Doc: "require probe implementations to be pure observers of the engine core " +
			"(no calls into core packages, no stores to core package state from callbacks) " +
			"and the core's step path to be write-only toward the obs package, " +
			"so tracing on vs off stays bit-identical.",
	}
	core := make(map[string]bool, len(cfg.Core))
	for _, p := range cfg.Core {
		core[p] = true
	}
	a.Run = func(pass *Pass) error {
		for _, pkg := range pass.Pkgs {
			checkProbeCallbacks(pass, pkg, cfg, core)
			if core[pkg.Types.Path()] {
				checkStepPathReads(pass, pkg, cfg.ObsPkg)
			}
		}
		return nil
	}
	return a
}

// probeIface resolves the probe interface as seen from pkg: its own
// scope when it is the obs package, the imported scope otherwise (a probe
// implementation necessarily imports the interface's package to name the
// callback parameter types, and each package is type-checked against its
// own import of it).
func probeIface(pkg *types.Package, cfg ObsPureConfig) *types.Interface {
	obs := pkg
	if pkg.Path() != cfg.ObsPkg {
		obs = imported(pkg, cfg.ObsPkg)
	}
	if obs == nil {
		return nil
	}
	obj := obs.Scope().Lookup(cfg.Iface)
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// checkProbeCallbacks enforces direction 1: for every declared method
// that is part of a probe implementation's interface method set, the
// body must not call into a core package nor store to core package-level
// variables.
func checkProbeCallbacks(pass *Pass, pkg *Package, cfg ObsPureConfig, core map[string]bool) {
	iface := probeIface(pkg.Types, cfg)
	if iface == nil {
		return
	}
	callbacks := map[string]bool{}
	for i := 0; i < iface.NumMethods(); i++ {
		callbacks[iface.Method(i).Name()] = true
	}
	forEachFuncDecl(pkg, func(decl *ast.FuncDecl, fn *types.Func) {
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil || !callbacks[fn.Name()] || decl.Body == nil {
			return
		}
		recv := sig.Recv().Type()
		if !types.Implements(recv, iface) && !types.Implements(types.NewPointer(recv), iface) {
			return
		}
		recvName := recv
		if p, ok := recvName.(*types.Pointer); ok {
			recvName = p.Elem()
		}
		label := recvName.String()
		if named, ok := recvName.(*types.Named); ok {
			label = named.Obj().Name()
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if callee, ok := pkg.Info.Uses[n].(*types.Func); ok && callee.Pkg() != nil && core[callee.Pkg().Path()] {
					pass.Reportf(n.Pos(),
						"probe callback (%s).%s calls %s in engine package %s: probe callbacks must be pure observers and never feed back into the engine",
						label, fn.Name(), callee.Name(), callee.Pkg().Path())
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					reportCoreStore(pass, pkg.Info, lhs, core, label, fn.Name())
				}
			case *ast.IncDecStmt:
				reportCoreStore(pass, pkg.Info, n.X, core, label, fn.Name())
			}
			return true
		})
	})
}

// reportCoreStore flags an assignment target that resolves (through
// selector/index/deref chains) to a package-level variable of a core
// package.
func reportCoreStore(pass *Pass, info *types.Info, lhs ast.Expr, core map[string]bool, label, method string) {
	var obj types.Object
	switch e := unwrapExpr(lhs).(type) {
	case *ast.Ident:
		obj = info.Uses[e]
	case *ast.SelectorExpr:
		obj = info.Uses[e.Sel]
	default:
		return
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || !core[v.Pkg().Path()] {
		return
	}
	if v.Parent() != v.Pkg().Scope() {
		return // local or field, not package state
	}
	pass.Reportf(lhs.Pos(),
		"probe callback (%s).%s stores to %s.%s: probe callbacks must be pure observers and never mutate engine package state",
		label, method, v.Pkg().Path(), v.Name())
}

// unwrapExpr strips parens, derefs and index hops down to the root
// identifier or selector of an assignment target.
func unwrapExpr(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return e
		}
	}
}

// checkStepPathReads enforces direction 2 inside one core package: walk
// the package's call graph from every //selfstab:mutator or
// //selfstab:hotpath annotated function and flag any reachable reference
// to a value-returning function or method declared in the obs package.
func checkStepPathReads(pass *Pass, pkg *Package, obsPkg string) {
	var roots []*types.Func
	forEachFuncDecl(pkg, func(decl *ast.FuncDecl, fn *types.Func) {
		if pkg.anns.fn(decl, "mutator") != nil || pkg.anns.fn(decl, "hotpath") != nil {
			roots = append(roots, fn)
		}
	})
	g := newCallGraph(pkg)
	reachable := make(map[*types.Func]bool)
	for _, fn := range g.reach(roots, nil) {
		reachable[fn] = true
	}
	forEachFuncDecl(pkg, func(_ *ast.FuncDecl, fn *types.Func) {
		if !reachable[fn] {
			return
		}
		for _, r := range g.refs[fn] {
			if r.fn.Pkg() != nil && r.fn.Pkg().Path() == obsPkg && r.fn.Type().(*types.Signature).Results().Len() > 0 {
				pass.Reportf(r.pos,
					"step-path function %s reads observation state via %s.%s: the engine must be write-only toward the probe, or tracing on vs off diverges",
					fn.Name(), pathBase(obsPkg), r.fn.Name())
			}
		}
	})
}
