package shoggoth_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The documents whose backticked names and -run patterns must keep existing.
var checkedDocs = []string{"DESIGN.md", ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml"}

var (
	fencedBlock = regexp.MustCompile("(?ms)^```.*?^```")
	codeSpan    = regexp.MustCompile("`([^`]+)`")
	testName    = regexp.MustCompile(`^(Test|Fuzz|Benchmark)\w*\*?$`)
	testFunc    = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	pathIdent   = regexp.MustCompile(`\.[A-Za-z_]\w*$`)
	qualified   = regexp.MustCompile(`^([a-z]\w*)\.([A-Z]\w*(?:\.\w+)?)(?:\(.*\))?$`)
	runFlag     = regexp.MustCompile(`(?:^|\s)-run\s+('[^']*'|"[^"]*"|[^\s'"` + "`" + `]+)`)
)

// TestDocsNameOnlyWhatExists fails when DESIGN.md, the verify skill or the
// CI workflow names, in backticks, a test that no _test.go file defines or a
// repo path that is gone, or runs a go test -run pattern one of whose
// |-alternatives at its top level (before the first unbracketed /) matches
// no test. A test name ending in * matches any test with that prefix. A path
// counts as repo-relative when its first element is an entry of the repo
// root; a trailing .Ident (as in internal/core.System) is a Go name inside
// the package and is stripped when the path itself does not exist. A
// qualified Go name pkg.Name or pkg.Type.Member, where pkg is the name of a
// repo package, must be declared in that package (_test.go files count).
func TestDocsNameOnlyWhatExists(t *testing.T) {
	tests := map[string]bool{}
	var names string // every test name, one per line, for -run patterns
	pkgs, decls := map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if pkg := strings.TrimSuffix(f.Name.Name, "_test"); pkg != "main" {
			pkgs[pkg] = true
			declare(decls, pkg, f)
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			tests[string(m[1])] = true
			names += string(m[1]) + "\n"
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
		for _, m := range runFlag.FindAllStringSubmatch(string(src), -1) {
			for _, alt := range topAlternatives(strings.Trim(m[1], `'"`)) {
				ok, err := regexp.MatchString("(?m)"+alt, names)
				if alt != "^$" && (err != nil || !ok) {
					t.Errorf("%s runs -run %s, whose %q matches no test", doc, m[1], alt)
				}
			}
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
			default:
				if q := qualified.FindStringSubmatch(name); q != nil && pkgs[q[1]] && !decls[q[1]+"."+q[2]] {
					t.Errorf("%s names %s, which package %s does not declare", doc, name, q[1])
				}
			}
		}
	}
}

// declare records in decls every top-level name of f as pkg.Name, and every
// method, struct field and interface method as pkg.Type.Member.
func declare(decls map[string]bool, pkg string, f *ast.File) {
	members := func(typ string, fields *ast.FieldList) {
		for _, fl := range fields.List {
			for _, n := range fl.Names {
				decls[pkg+"."+typ+"."+n.Name] = true
			}
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				decls[pkg+"."+d.Name.Name] = true
				continue
			}
			recv := d.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			switch r := recv.(type) {
			case *ast.IndexExpr:
				recv = r.X
			case *ast.IndexListExpr:
				recv = r.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				decls[pkg+"."+id.Name+"."+d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					decls[pkg+"."+spec.Name.Name] = true
					switch typ := spec.Type.(type) {
					case *ast.StructType:
						members(spec.Name.Name, typ.Fields)
					case *ast.InterfaceType:
						members(spec.Name.Name, typ.Methods)
					}
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						decls[pkg+"."+n.Name] = true
					}
				}
			}
		}
	}
}

// topAlternatives splits a -run pattern's top level, everything before its
// first / outside brackets, at each | outside brackets.
func topAlternatives(pattern string) (alts []string) {
	depth, start := 0, 0
	for i, c := range pattern + "/" {
		switch {
		case c == '(' || c == '[':
			depth++
		case c == ')' || c == ']':
			depth--
		case depth == 0 && c == '|':
			alts, start = append(alts, pattern[start:i]), i+1
		case depth == 0 && c == '/':
			return append(alts, pattern[start:i])
		}
	}
	return alts
}
