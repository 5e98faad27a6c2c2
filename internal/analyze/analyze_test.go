package analyze

import (
	"slices"
	"strings"
	"testing"
)

// fixtureDetRandConfig mirrors DefaultDetRandConfig onto the fixture
// module: detcore is engine core, fakerng is the stream wrapper.
func fixtureDetRandConfig() DetRandConfig {
	return DetRandConfig{
		Core:      []string{"lintfix/detcore", "lintfix/fakerng"},
		RNGImport: "lintfix/fakerng",
	}
}

func TestDetRand(t *testing.T) {
	pkgs := loadFixture(t, "./fakerng", "./detcore", "./detconsumer", "./detfree")
	checkDiagnostics(t, pkgs, NewDetRand(fixtureDetRandConfig()))
}

func TestMapOrder(t *testing.T) {
	pkgs := loadFixture(t, "./mapiter")
	checkDiagnostics(t, pkgs, NewMapOrder(MapOrderConfig{Packages: []string{"lintfix/mapiter"}}))
}

func TestJournalChoke(t *testing.T) {
	pkgs := loadFixture(t, "./engine", "./world")
	checkDiagnostics(t, pkgs, NewJournalChoke(JournalChokeConfig{
		PkgPath: "lintfix/world", TypeName: "World", Choke: "apply",
	}))
}

// TestJournalChokeMissingChokepoint pins the config-drift failure mode:
// renaming the chokepoint without updating the lint config must be a
// loud diagnostic, not a silently-passing check.
func TestJournalChokeMissingChokepoint(t *testing.T) {
	pkgs := loadFixture(t, "./engine", "./world")
	diags, err := Run(pkgs, []*Analyzer{NewJournalChoke(JournalChokeConfig{
		PkgPath: "lintfix/world", TypeName: "World", Choke: "applyOp",
	})})
	if err != nil {
		t.Fatalf("running journalchoke: %v", err)
	}
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 diagnostic for a missing chokepoint, got %d: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "journal chokepoint (*World).applyOp not found") {
		t.Errorf("unexpected message: %s", diags[0].Message)
	}
}

func TestObsPure(t *testing.T) {
	pkgs := loadFixture(t, "./obsiface", "./obscore", "./obsprobes")
	checkDiagnostics(t, pkgs, NewObsPure(ObsPureConfig{
		ObsPkg: "lintfix/obsiface", Iface: "Probe", Core: []string{"lintfix/obscore"},
	}))
}

func TestHotPath(t *testing.T) {
	pkgs := loadFixture(t, "./hot")
	checkDiagnostics(t, pkgs, NewHotPath())
}

func TestTestOnly(t *testing.T) {
	pkgs := loadFixture(t, "./internal/tonly", "./tuser")
	checkDiagnostics(t, pkgs, NewTestOnly())
}

// TestTestRefAnnotations: a testref without a reason exempts nothing, a
// testref on a name non-test code uses is stale, and a testref outside a
// declaration's doc comment governs nothing — each is a diagnostic.
func TestTestRefAnnotations(t *testing.T) {
	pkgs := loadFixture(t, "./internal/tann", "./tuser")
	diags, err := Run(pkgs, []*Analyzer{NewTestOnly()})
	if err != nil {
		t.Fatalf("running testonly over tann: %v", err)
	}
	wants := []string{
		"//selfstab:testref requires a reason",
		"tann.Bare is exported but only tests reference it",
		"//selfstab:testref on tann.Live, which non-test code references",
		"misplaced //selfstab:testref",
	}
	if len(diags) != len(wants) {
		for _, d := range diags {
			t.Logf("got: %s: %s", pkgs[0].Fset.Position(d.Pos), d.Message)
		}
		t.Fatalf("want %d diagnostics, got %d", len(wants), len(diags))
	}
	for _, w := range wants {
		if !slices.ContainsFunc(diags, func(d Diagnostic) bool { return strings.Contains(d.Message, w) }) {
			t.Errorf("no diagnostic contains %q", w)
		}
	}
}

// TestMalformedAnnotations drives the shared annotation scanner over a
// package of deliberate mistakes. Every malformation must surface as a
// diagnostic — a selfstab annotation that does not parse is an
// invariant that silently stopped being enforced — and the one
// well-formed annotation in the package must not.
func TestMalformedAnnotations(t *testing.T) {
	pkgs := loadFixture(t, "./badann")
	diags, err := Run(pkgs, []*Analyzer{NewHotPath()})
	if err != nil {
		t.Fatalf("running hotpath over badann: %v", err)
	}
	wants := []string{
		"no space allowed between // and selfstab:",
		"missing verb",
		`unknown verb "frobnicate"`,
		"use a line comment",
		"misplaced //selfstab:cache",
		"requires a reason",
		"misplaced //selfstab:hotpath",
		"misplaced //selfstab:orderinvariant",
	}
	if len(diags) != len(wants) {
		for _, d := range diags {
			t.Logf("got: %s: %s", pkgs[0].Fset.Position(d.Pos), d.Message)
		}
		t.Fatalf("want %d diagnostics, got %d", len(wants), len(diags))
	}
	for _, w := range wants {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, w) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic contains %q", w)
		}
	}
}

// TestSuiteOnRepo is the acceptance gate in test form: the shipped
// suite, with its production configs, runs clean over the repository
// itself. This is the same sweep CI performs via cmd/selfstab-lint.
func TestSuiteOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading repository: %v", err)
	}
	diags, err := Run(pkgs, Suite())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s (%s)", pkgs[0].Fset.Position(d.Pos), d.Message, d.Analyzer)
	}
}
