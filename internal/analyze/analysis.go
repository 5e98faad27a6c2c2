// Package analyze is the repo's static-analysis suite: six analyzers
// (detrand, maporder, journalchoke, hotpath, obspure, testonly) that turn
// the engine's standing invariants into machine-checked contracts, plus
// the small framework they run on.
//
// Why these rules exist:
//
//   - Determinism is the product. Every oracle in this repo — the
//     1-vs-N-worker twins, the sparse-vs-dense twins, snapshot replay —
//     asserts bit-identical trajectories. A single draw from the global
//     math/rand source, one wall-clock read, or one `for range` over a
//     map inside a step phase silently breaks all of them, and the
//     dynamic tests only catch it when a random schedule happens to
//     expose it. detrand and maporder reject those constructs at
//     compile-review time in the deterministic packages (the engine
//     core plus any package that consumes internal/rng streams).
//   - The journal must be complete by construction. Snapshot replay
//     (journal.go) is only faithful because every public world mutator
//     routes through the applyOp chokepoint. journalchoke walks the
//     call graph of every exported Network method and fails the build
//     if a method can reach a mutating engine entry point — or write
//     Network state — without passing through applyOp.
//   - Observation must not perturb the trajectory. The instrumentation
//     layer (internal/obs) promises that tracing on vs off is
//     bit-identical; that holds only if probe callbacks never feed back
//     into the engine and the step path never reads observation state.
//     obspure checks both directions statically, so a probe that steers
//     the world is a lint failure before it is a flaky oracle.
//   - The hot paths are allocation-budgeted. The step benchmarks pin
//     0–2 allocs/op; hotpath statically rejects the incidental
//     allocation sites (fmt calls, map/slice composite literals,
//     closures, concrete-to-interface conversions) inside functions
//     annotated //selfstab:hotpath, so the benchmark gate and the
//     analyzer guard the same code from two sides.
//   - Code nothing runs is not free. An exported name of an internal/
//     package, or a root function or method, that only tests reference
//     is a second implementation, an unused option or a convenience the
//     system never needed, and the zero-coverage gate cannot see it
//     because its tests execute it. testonly reports every such name; the
//     only exemption is a name a test contract compares against, which
//     says so with testref. A method reached through an interface counts
//     as used only when the interface is declared in this module (or fmt
//     and encoding call it), so a call of a standard-library method such
//     as types.Object's Name keeps no same-named method alive. It needs
//     every importer loaded, so cmd/selfstab-lint with no arguments loads
//     the whole program, the bench/ harness included.
//
// The framework is what the suite needs and no more. Load makes one
// `go list -export -deps` call and type-checks the matched packages from
// source against gc export data, so it builds with the standard library
// only and works offline. Run scans each package's //selfstab:
// annotations once, reporting malformed and misplaced ones itself, then
// hands every analyzer the whole program at once.
//
// Annotation escape hatches (see annotation.go for the grammar):
//
//	//selfstab:hotpath           function must stay free of obvious allocation sites
//	//selfstab:orderinvariant    this map range is order-independent (say why)
//	//selfstab:mutator           this method mutates the world trajectory
//	//selfstab:unjournaled       exported method deliberately outside the op journal (say why)
//	//selfstab:cache             this field is derived state, rebuilt deterministically
//	//selfstab:testref           exported name only tests use, kept for a test contract (say which)
package analyze

import (
	"cmp"
	"fmt"
	"go/token"
	"slices"
)

// Analyzer describes one static check over the whole program.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// selfstab-lint -list.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run performs the check over every loaded package.
	Run func(*Pass) error
}

// Diagnostic is one finding, positioned at Pos.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Pass carries the loaded program to one analyzer and collects its
// diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Pkgs are the loaded packages in dependency order: a package comes
	// before the packages that import it.
	Pkgs []*Package

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// Run scans every package's //selfstab: annotations, reporting malformed
// and misplaced ones under the name "annotation", then runs each analyzer
// over the whole program and returns every diagnostic sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	fset := pkgs[0].Fset
	ann := &Pass{Analyzer: &Analyzer{Name: "annotation"}, Fset: fset, Pkgs: pkgs}
	for _, pkg := range pkgs {
		pkg.anns = scanAnnotations(ann, pkg)
	}
	all := ann.diags
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Fset: fset, Pkgs: pkgs}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		all = append(all, pass.diags...)
	}
	slices.SortStableFunc(all, func(a, b Diagnostic) int {
		pa, pb := fset.Position(a.Pos), fset.Position(b.Pos)
		return cmp.Or(cmp.Compare(pa.Filename, pb.Filename), cmp.Compare(pa.Line, pb.Line),
			cmp.Compare(pa.Column, pb.Column), cmp.Compare(a.Message, b.Message))
	})
	return all, nil
}
