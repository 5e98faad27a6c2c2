package analyze

import (
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
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
	pkgs := loadFixture(t, ".", "./internal/tonly", "./tuser")
	checkDiagnostics(t, pkgs, NewTestOnly("lintfix"))
}

// TestTestRefAnnotations: a testref without a reason exempts nothing, a
// testref on a name non-test code uses is stale, and a testref outside a
// declaration's doc comment governs nothing — each is a diagnostic.
func TestTestRefAnnotations(t *testing.T) {
	pkgs := loadFixture(t, "./internal/tann", "./tuser")
	diags, err := Run(pkgs, []*Analyzer{NewTestOnly("lintfix")})
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

// fixtureSuite is the six analyzers with the fixture configs the tests
// above use.
func fixtureSuite() []*Analyzer {
	return []*Analyzer{
		NewDetRand(fixtureDetRandConfig()),
		NewMapOrder(MapOrderConfig{Packages: []string{"lintfix/mapiter"}}),
		NewJournalChoke(JournalChokeConfig{PkgPath: "lintfix/world", TypeName: "World", Choke: "apply"}),
		NewHotPath(),
		NewObsPure(ObsPureConfig{ObsPkg: "lintfix/obsiface", Iface: "Probe", Core: []string{"lintfix/obscore"}}),
		NewTestOnly("lintfix"),
	}
}

// TestFixtureDiagnosticsGolden pins every diagnostic the whole suite
// reports over the whole fixture module, one `file:line:col: message`
// line each, against testdata/diags.golden. Paths, in positions and in
// messages, are relative to the fixture module; the analyzer is left
// out, so the file pins what is reported, not which pass reports it.
// Regenerate with SELFSTAB_UPDATE_GOLDEN=1 go test -run
// TestFixtureDiagnosticsGolden ./internal/analyze and review the diff.
func TestFixtureDiagnosticsGolden(t *testing.T) {
	pkgs := loadFixture(t, "./...")
	diags, err := Run(pkgs, fixtureSuite())
	if err != nil {
		t.Fatalf("running the suite over the fixtures: %v", err)
	}
	dir, err := filepath.Abs(fixtureDir)
	if err != nil {
		t.Fatal(err)
	}
	rel := strings.NewReplacer(dir+string(filepath.Separator), "")
	var got strings.Builder
	for _, d := range diags {
		p := pkgs[0].Fset.Position(d.Pos)
		fmt.Fprintf(&got, "%s:%d:%d: %s\n", filepath.ToSlash(rel.Replace(p.Filename)), p.Line, p.Column, rel.Replace(d.Message))
	}
	path := filepath.Join("testdata", "diags.golden")
	if os.Getenv("SELFSTAB_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with SELFSTAB_UPDATE_GOLDEN=1): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("fixture diagnostics differ from %s:\n%s", path, got.String())
	}
}

// loadRepo loads the whole program, this module and the bench/ harness
// as one build, once per test binary.
var loadRepo = sync.OnceValues(func() ([]*Package, error) {
	return Load("../../bench", "selfstab/...", "./...")
})

// repoPackages is loadRepo for a test: it skips under -short and fails
// the test if the load failed.
func repoPackages(t *testing.T) []*Package {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole repository")
	}
	pkgs, err := loadRepo()
	if err != nil {
		t.Fatalf("loading repository: %v", err)
	}
	return pkgs
}

// TestSuiteOnRepo is the acceptance gate in test form: the shipped
// suite, with its production configs, runs clean over the repository
// itself and the bench/ harness, loaded as one program. This is the same
// sweep CI performs via cmd/selfstab-lint with no arguments.
func TestSuiteOnRepo(t *testing.T) {
	pkgs := repoPackages(t)
	diags, err := Run(pkgs, Suite())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s (%s)", pkgs[0].Fset.Position(d.Pos), d.Message, d.Analyzer)
	}
}

// TestDefaultConfigsNameRealCode: every package, type, method and
// interface the production configs name exists in the whole program. An
// analyzer skips a package path nothing loads without a word, so a
// misspelled path would leave TestSuiteOnRepo green with its rule off.
func TestDefaultConfigsNameRealCode(t *testing.T) {
	loaded := map[string]*types.Package{}
	for _, pkg := range repoPackages(t) {
		loaded[pkg.Types.Path()] = pkg.Types
	}
	det, mo, obs, jc := DefaultDetRandConfig(), DefaultMapOrderConfig(), DefaultObsPureConfig(), DefaultJournalChokeConfig()
	paths := slices.Concat(det.Core, []string{det.RNGImport}, mo.Packages, []string{mo.RNGImport},
		obs.Core, []string{obs.ObsPkg, jc.PkgPath})
	for _, p := range paths {
		if loaded[p] == nil {
			t.Errorf("config names package %q, which the whole program does not contain", p)
		}
	}
	if w := loaded[jc.PkgPath]; w != nil {
		if world := lookupNamedType(w, jc.TypeName); world == nil {
			t.Errorf("journalchoke: no type %s.%s", jc.PkgPath, jc.TypeName)
		} else if m, _, _ := types.LookupFieldOrMethod(types.NewPointer(world), false, w, jc.Choke); m == nil {
			t.Errorf("journalchoke: no method (*%s).%s", jc.TypeName, jc.Choke)
		}
	}
	if o := loaded[obs.ObsPkg]; o != nil {
		if iface := o.Scope().Lookup(obs.Iface); iface == nil || !types.IsInterface(iface.Type()) {
			t.Errorf("obspure: %s.%s is not an interface", obs.ObsPkg, obs.Iface)
		}
	}
}
