package shoggoth_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The prose documents whose backticked names must keep existing.
var checkedDocs = []string{"DESIGN.md", ".claude/skills/verify/SKILL.md"}

var (
	fencedBlock = regexp.MustCompile("(?ms)^```.*?^```")
	codeSpan    = regexp.MustCompile("`([^`]+)`")
	testName    = regexp.MustCompile(`^(Test|Fuzz|Benchmark)\w*\*?$`)
	testFunc    = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	pathIdent   = regexp.MustCompile(`\.[A-Za-z_]\w*$`)
)

// TestDocsNameOnlyWhatExists fails when DESIGN.md or the verify skill names,
// in backticks, a test that no _test.go file defines or a repo path that is
// gone. A test name ending in * matches any test with that prefix. A path
// counts as repo-relative when its first element is an entry of the repo
// root; a trailing .Ident (as in internal/core.System) is a Go name inside
// the package and is stripped when the path itself does not exist.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	tests := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			tests[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defined := func(name string) bool {
		prefix, wild := strings.CutSuffix(name, "*")
		if !wild {
			return tests[name]
		}
		for n := range tests {
			if strings.HasPrefix(n, prefix) {
				return true
			}
		}
		return false
	}
	exists := func(path string) bool {
		_, err := os.Stat(filepath.FromSlash(path))
		return err == nil
	}

	for _, doc := range checkedDocs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		prose := fencedBlock.ReplaceAllString(string(src), "")
		for _, m := range codeSpan.FindAllStringSubmatch(prose, -1) {
			name := m[1]
			if strings.ContainsAny(name, " \n\t") {
				continue // a command or an expression, not a name
			}
			switch {
			case testName.MatchString(name):
				if !defined(name) {
					t.Errorf("%s names %s, which no _test.go file defines", doc, name)
				}
			case strings.Contains(name, "/"):
				first, _, _ := strings.Cut(strings.TrimSuffix(name, "/"), "/")
				if first == "" || !exists(first) || exists(name) {
					continue
				}
				if !exists(pathIdent.ReplaceAllString(name, "")) {
					t.Errorf("%s names %s, which is not in the repo", doc, name)
				}
			}
		}
	}
}
