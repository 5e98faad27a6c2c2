package analyze

import (
	"go/ast"
	"go/types"
	"strings"
)

// DetRandConfig parameterizes the detrand analyzer so the test fixtures
// can stand in their own module; production code uses DefaultDetRand.
type DetRandConfig struct {
	// Core lists the package paths where every determinism rule applies:
	// no global math/rand, no wall-clock reads, no environment reads.
	// These are the packages whose code runs inside step/apply paths.
	Core []string
	// RNGImport is the seeded-stream package. Any package importing it
	// has declared itself deterministic, so the global math/rand rule
	// extends to it (wall clock and environment stay allowed there:
	// CLIs legitimately time themselves, but must not draw unseeded
	// randomness into trajectories they promise are reproducible).
	RNGImport string
}

// DefaultDetRandConfig covers this repo: the engine core plus every
// internal/rng consumer.
func DefaultDetRandConfig() DetRandConfig {
	return DetRandConfig{
		Core: []string{
			"selfstab",
			"selfstab/internal/runtime",
			"selfstab/internal/traffic",
			"selfstab/internal/energy",
			"selfstab/internal/topology",
			"selfstab/internal/rng",
		},
		RNGImport: "selfstab/internal/rng",
	}
}

// randConstructors are the math/rand functions that build isolated
// generators rather than touching the global source. They are legal
// only inside the rng wrapper package itself: everywhere else, even an
// isolated generator is a second seeding discipline that drifts from
// the master-seed Split tree.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

// NewDetRand returns the determinism-source analyzer for cfg.
func NewDetRand(cfg DetRandConfig) *Analyzer {
	a := &Analyzer{
		Name: "detrand",
		Doc: "forbid nondeterministic inputs in deterministic packages: " +
			"global math/rand draws (everywhere the package consumes seeded rng streams), " +
			"and wall-clock or environment reads (in the engine core). " +
			"All randomness must flow from seeded internal/rng split streams so that " +
			"worker-count, full-scan and snapshot-replay twins stay bit-identical.",
	}
	core := make(map[string]bool, len(cfg.Core))
	for _, p := range cfg.Core {
		core[p] = true
	}
	a.Run = func(pass *Pass) error {
		isCore := core[pass.Pkg.Path()]
		consumer := false
		for _, imp := range pass.Pkg.Imports() {
			if imp.Path() == cfg.RNGImport {
				consumer = true
				break
			}
		}
		if !isCore && !consumer {
			return nil
		}
		scanAnnotations(pass) // validate annotations even where no rule fires
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := pass.Info.Uses[id]
				fn, ok := obj.(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
					return true // methods (e.g. (*rand.Rand).Intn on a seeded instance) are fine
				}
				switch path := fn.Pkg().Path(); {
				case path == "math/rand" || path == "math/rand/v2":
					if randConstructors[fn.Name()] {
						if pass.Pkg.Path() == cfg.RNGImport {
							return true // the wrapper package is where generators are built
						}
						pass.Reportf(id.Pos(), "%s.%s constructs a generator outside the rng wrapper package; derive a stream from the master seed (Split/SplitN) instead", pathBase(path), fn.Name())
						return true
					}
					pass.Reportf(id.Pos(), "global %s.%s draws from shared process-wide state; draw from a seeded rng stream (Split/SplitN) instead", pathBase(path), fn.Name())
				case isCore && path == "time" && (fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until"):
					pass.Reportf(id.Pos(), "time.%s in deterministic package %s: wall-clock reads break replay determinism", fn.Name(), pass.Pkg.Path())
				case isCore && path == "os" && (fn.Name() == "Getenv" || fn.Name() == "LookupEnv" || fn.Name() == "Environ"):
					pass.Reportf(id.Pos(), "os.%s in deterministic package %s: environment-conditioned logic breaks replay determinism", fn.Name(), pass.Pkg.Path())
				}
				return true
			})
		}
		return nil
	}
	return a
}

func pathBase(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}
