package selfstab

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// declRe matches a top-level declaration line of `go doc -all` output.
var declRe = regexp.MustCompile(`^(func|type|const|var) `)

// TestPublicAPI pins the package's public surface: the declaration lines
// of `go doc -all .` (every func, method, type, const and var, and each
// member of a const or var block, without doc comments) must equal
// testdata/api.txt. An API change is then a reviewed diff; regenerate
// with SELFSTAB_UPDATE_GOLDEN=1 go test -run TestPublicAPI .
func TestPublicAPI(t *testing.T) {
	out, err := exec.Command("go", "doc", "-all", ".").Output()
	if err != nil {
		t.Fatalf("go doc: %v", err)
	}
	var api strings.Builder
	block := false
	for _, line := range strings.Split(string(out), "\n") {
		switch {
		case block:
			if !strings.HasPrefix(strings.TrimSpace(line), "//") {
				api.WriteString(line + "\n")
			}
			block = line != ")"
		case declRe.MatchString(line):
			api.WriteString(line + "\n")
			block = line == "const (" || line == "var ("
		}
	}
	path := filepath.Join("testdata", "api.txt")
	if os.Getenv("SELFSTAB_UPDATE_GOLDEN") != "" {
		must(t, os.WriteFile(path, []byte(api.String()), 0o644))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with SELFSTAB_UPDATE_GOLDEN=1): %v", err)
	}
	if got := api.String(); got != string(want) {
		t.Errorf("public API differs from %s: regenerate with SELFSTAB_UPDATE_GOLDEN=1 go test -run TestPublicAPI . and review its git diff", path)
	}
}
