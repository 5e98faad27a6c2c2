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
//     as types.Object's Name keeps no same-named method alive. It is the
//     one whole-program rule: it reports from Analyzer.Finish, after Run
//     has seen every importer, and cmd/selfstab-lint with no arguments
//     loads the whole program, the bench/ harness included.
//
// The framework deliberately mirrors a narrow slice of
// golang.org/x/tools/go/analysis (Analyzer, Pass, Diagnostic, package
// facts) so the analyzers can migrate to the real multichecker
// verbatim once the dependency is available; this environment builds
// with the standard library only, so loading is done with
// `go list -export` plus the gc importer instead of go/packages.
//
// Annotation escape hatches (see annotation.go for the grammar):
//
//	//selfstab:hotpath           function must stay free of obvious allocation sites
//	//selfstab:orderinvariant    this map range is order-independent (say why)
//	//selfstab:mutator           exported fact: this method mutates world trajectory
//	//selfstab:unjournaled       exported method deliberately outside the op journal (say why)
//	//selfstab:cache             this field is derived state, rebuilt deterministically
//	//selfstab:testref           exported name only tests use, kept for a test contract (say which)
package analyze

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check. It mirrors
// golang.org/x/tools/go/analysis.Analyzer closely enough that porting
// to the real package is mechanical.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -<name>=false
	// disable flags.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run performs the check on one package.
	Run func(*Pass) error
	// Finish, if set, runs once after Run has seen every package: the
	// hook for a whole-program rule, whose evidence lives in importers.
	// Its pass carries the file set only.
	Finish func(*Pass) error
}

// Diagnostic is one finding, positioned at Pos.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Pass carries one package's syntax and type information to an
// analyzer, and collects its diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags []Diagnostic
	facts *FactStore
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// ExportPackageFact records a named fact about the package under
// analysis, visible to later passes of the same analyzer over packages
// that (transitively) import it.
func (p *Pass) ExportPackageFact(key string, value any) {
	p.facts.set(p.Analyzer.Name, p.Pkg.Path(), key, value)
}

// ImportPackageFact retrieves a fact exported by this analyzer for the
// given package path, or nil if none was recorded.
func (p *Pass) ImportPackageFact(pkgPath, key string) any {
	return p.facts.get(p.Analyzer.Name, pkgPath, key)
}

// FactStore holds per-analyzer, per-package facts across a multi-package
// run. Keys are (analyzer, package path, fact name).
type FactStore struct {
	m map[string]any
}

// NewFactStore returns an empty fact store.
func NewFactStore() *FactStore { return &FactStore{m: make(map[string]any)} }

func (s *FactStore) set(analyzer, pkg, key string, v any) {
	s.m[analyzer+"\x00"+pkg+"\x00"+key] = v
}

func (s *FactStore) get(analyzer, pkg, key string) any {
	return s.m[analyzer+"\x00"+pkg+"\x00"+key]
}

// Run executes the analyzers over the packages, in the order given
// (callers load packages in dependency order so facts flow from
// imported to importing packages), then each analyzer's Finish, and
// returns every diagnostic sorted by position. Diagnostics with
// identical position and message are deduplicated: the annotation
// scanner reports malformed annotations from every analyzer that
// consults it, and one complaint is enough.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	facts := NewFactStore()
	var all []Diagnostic
	for _, a := range analyzers {
		for _, pkg := range pkgs {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				facts:    facts,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
			all = append(all, pass.diags...)
		}
		if a.Finish != nil && len(pkgs) > 0 {
			pass := &Pass{Analyzer: a, Fset: pkgs[0].Fset}
			if err := a.Finish(pass); err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
			all = append(all, pass.diags...)
		}
	}
	return dedupeSorted(pkgs, all), nil
}

func dedupeSorted(pkgs []*Package, diags []Diagnostic) []Diagnostic {
	var fset *token.FileSet
	if len(pkgs) > 0 {
		fset = pkgs[0].Fset
	}
	sort.SliceStable(diags, func(i, j int) bool {
		if fset != nil {
			pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
			if pi.Filename != pj.Filename {
				return pi.Filename < pj.Filename
			}
			if pi.Line != pj.Line {
				return pi.Line < pj.Line
			}
			if pi.Column != pj.Column {
				return pi.Column < pj.Column
			}
		}
		return diags[i].Message < diags[j].Message
	})
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && diags[i-1].Pos == d.Pos && diags[i-1].Message == d.Message {
			continue
		}
		out = append(out, d)
	}
	return out
}
