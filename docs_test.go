package shoggoth_test

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"shoggoth/internal/runspec"
)

// The documents whose backticked names and -run patterns must keep existing.
var checkedDocs = []string{"DESIGN.md", ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml"}

var (
	fencedBlock = regexp.MustCompile("(?ms)^```.*?^```")
	codeSpan    = regexp.MustCompile("`([^`]+)`")
	testName    = regexp.MustCompile(`^(Test|Fuzz|Benchmark|Example)\w*\*?$`)
	testFunc    = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(`)
	pathIdent   = regexp.MustCompile(`\.[A-Za-z_]\w*$`)
	qualified   = regexp.MustCompile(`^([a-z]\w*)\.([A-Z]\w*(?:\.\w+)?)(?:\(.*\))?$`)
	runFlag     = regexp.MustCompile(`(?:^|\s)-run\s+('[^']*'|"[^"]*"|[^\s'"` + "`" + `]+)`)
	snakeCase   = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)+$`)
	dottedName  = regexp.MustCompile(`^([a-z][a-z0-9_]*)(?:\.[a-z0-9_-]+)+$`)
	fileName    = regexp.MustCompile(`\.(go|s|md|json|jsonl|yml|txt|sh)$`)
	goRun       = regexp.MustCompile("go run \\./cmd/([\\w-]+)([^`&|;<>()\\n]*)")
	flagToken   = regexp.MustCompile(`^--?([A-Za-z][\w-]*)(=.*)?$`)
)

// TestDocsNameOnlyWhatExists fails when DESIGN.md, the verify skill or the
// CI workflow names, in backticks, a test (an Example function counts) that
// no _test.go file defines or a repo path that is gone, or runs a go test
// -run pattern one of whose |-alternatives at its top level (before the
// first unbracketed /) matches no test. A test name ending in * matches any test with that prefix. A path
// counts as repo-relative when its first element is an entry of the repo
// root; a trailing .Ident (as in internal/core.System) is a Go name inside
// the package and is stripped when the path itself does not exist. A
// qualified Go name pkg.Name or pkg.Type.Member, where pkg is the name of a
// repo package, must be declared in that package (_test.go files count). A
// snake_case name must be a json tag of a struct field in non-test Go (a
// spec key, a results field) or a workload or metric of BENCHMARK.json. A
// dotted lower-case name whose first segment is that of some BENCHMARK.json
// metric (sim.engine.serial_s, cloud.batches) must be a declared metric. A
// command go run ./cmd/<bin> may pass only flags that <bin> defines.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	binFlags := binaryFlags(t)
	const sample = "run `go run ./cmd/a -x 1\n  -y=2` then\ngo run ./cmd/b --z > -w"
	if got, want := goRunFlags(goRunCommands(sample, sample)), []binFlag{{"a", "x"}, {"b", "z"}, {"a", "y"}}; !slices.Equal(got, want) {
		t.Fatalf("goRunFlags on a sample: %v, want %v", got, want)
	}
	const setSample = "`go run ./cmd/shoggoth-sim -set strategy=all -set 'cloud.service.policy=wfq'\n  -set=seed=3 -json` and\n" +
		"go run ./cmd/shoggoth-edge --set duration=1 -cloud u; go run ./cmd/a -set x.y=1"
	if got, want := goRunSetKeys(goRunCommands(setSample, setSample)), []binFlag{{"shoggoth-sim", "strategy"}, {"shoggoth-sim", "cloud"}, {"shoggoth-edge", "duration"}, {"shoggoth-sim", "seed"}}; !slices.Equal(got, want) {
		t.Fatalf("goRunSetKeys on a sample: %v, want %v", got, want)
	}
	sampleMetrics := map[string]bool{"sim.engine.serial_s": true, "cloud.batches": true}
	for name, want := range map[string]bool{
		"sim.engine.serial_s": false, "sim.engine.serial_ss": true, "cloud.batchs": true,
		"sim.go": false, "fleet.go": false, "upload.done": false, "cloud.Labeler": false,
	} {
		if got := misnamedMetric(name, sampleMetrics, nil); got != want {
			t.Fatalf("misnamedMetric(%q) on a sample: %v, want %v", name, got, want)
		}
	}
	specKeys := map[string]bool{}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(runspec.Spec{})) {
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		specKeys[name] = true
	}
	tests := map[string]bool{}
	keys := map[string]bool{} // json tags and BENCHMARK.json names
	metrics := map[string]bool{}
	bench := readBenchmark(t)
	for _, w := range bench.Workloads {
		keys[w.Name] = true
	}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		keys[m.Name], metrics[m.Name] = true, true
	}
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
			jsonTags(keys, f)
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
		cmds := goRunCommands(string(src), prose)
		for _, c := range goRunFlags(cmds) {
			if flags, ok := binFlags[c.bin]; !ok {
				t.Errorf("%s runs go run ./cmd/%s, which is no binary", doc, c.bin)
			} else if !flags[c.flag] && c.flag != "h" && c.flag != "help" {
				t.Errorf("%s runs go run ./cmd/%s with -%s, which %s does not define", doc, c.bin, c.flag, c.bin)
			}
		}
		for _, c := range goRunSetKeys(cmds) {
			if !specKeys[c.flag] {
				t.Errorf("%s runs go run ./cmd/%s with -set %s…, which is no run-spec key", doc, c.bin, c.flag)
			}
		}
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
			case snakeCase.MatchString(name):
				if !keys[name] {
					t.Errorf("%s names %s, which is no json tag and no BENCHMARK.json name", doc, name)
				}
			case dottedName.MatchString(name):
				if misnamedMetric(name, metrics, decls) {
					t.Errorf("%s names %s, which reads as a metric but BENCHMARK.json declares no such name", doc, name)
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

// misnamedMetric reports whether name reads as a metric name — a dotted
// lower-case token whose first segment begins some metric of metrics — but
// is none of them. A file name, or a Go name that decls holds, reads as no
// metric.
func misnamedMetric(name string, metrics, decls map[string]bool) bool {
	m := dottedName.FindStringSubmatch(name)
	if m == nil || metrics[name] || decls[name] || fileName.MatchString(name) {
		return false
	}
	for metric := range metrics {
		if strings.HasPrefix(metric, m[1]+".") {
			return true
		}
	}
	return false
}

// goRunCommand is one go run ./cmd/<bin> command of a document: the binary
// and its arguments, up to the first shell operator, closing backtick or
// line end.
type goRunCommand struct {
	bin  string
	args []string
}

// goRunCommands returns every go run ./cmd/<bin> command of doc. A code
// span of prose (doc without its fenced blocks) may wrap its command
// across lines, so each is also read with its lines joined.
func goRunCommands(doc, prose string) []goRunCommand {
	texts := []string{doc}
	for _, m := range codeSpan.FindAllStringSubmatch(prose, -1) {
		texts = append(texts, strings.Join(strings.Fields(m[1]), " "))
	}
	var out []goRunCommand
	for _, text := range texts {
		for _, m := range goRun.FindAllStringSubmatch(text, -1) {
			out = append(out, goRunCommand{m[1], strings.Fields(m[2])})
		}
	}
	return out
}

// binFlag is one flag, or the first key of one -set edit, that a document
// passes to go run ./cmd/<bin>.
type binFlag struct{ bin, flag string }

// goRunFlags returns every flag that cmds pass, once each.
func goRunFlags(cmds []goRunCommand) []binFlag {
	var out []binFlag
	seen := map[binFlag]bool{}
	for _, c := range cmds {
		for _, tok := range c.args {
			if f := flagToken.FindStringSubmatch(tok); f != nil {
				if bf := (binFlag{c.bin, f[1]}); !seen[bf] {
					seen[bf] = true
					out = append(out, bf)
				}
			}
		}
	}
	return out
}

// specBinaries take a run spec, so their -set edits name run-spec keys.
var specBinaries = map[string]bool{"shoggoth-sim": true, "shoggoth-edge": true}

// goRunSetKeys returns, once each, the first element of the dot path of
// every -set path=value edit that cmds pass to a binary of specBinaries.
func goRunSetKeys(cmds []goRunCommand) []binFlag {
	var out []binFlag
	seen := map[binFlag]bool{}
	for _, c := range cmds {
		if !specBinaries[c.bin] {
			continue
		}
		for i, tok := range c.args {
			f := flagToken.FindStringSubmatch(tok)
			if f == nil || f[1] != "set" {
				continue
			}
			edit := strings.TrimPrefix(f[2], "=")
			if edit == "" && i+1 < len(c.args) {
				edit = c.args[i+1]
			}
			key, _, _ := strings.Cut(strings.TrimLeft(edit, `'"`), "=")
			key, _, _ = strings.Cut(key, ".")
			if bf := (binFlag{c.bin, key}); key != "" && !seen[bf] {
				seen[bf] = true
				out = append(out, bf)
			}
		}
	}
	return out
}

// flagDefiners are the flag package's defining functions and FlagSet
// methods; those ending in Var take the flag's name second.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolFunc": true, "BoolVar": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "Int64": true,
	"Int64Var": true, "IntVar": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "Uint64": true, "Uint64Var": true, "UintVar": true, "Var": true,
}

// binaryFlags returns, for each binary under cmd/, the flags its non-test
// files define: the string-literal name of every flag-defining call.
func binaryFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	dirs, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]map[string]bool{}
	fset := token.NewFileSet()
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		flags := map[string]bool{}
		files, _ := filepath.Glob(filepath.Join("cmd", d.Name(), "*.go"))
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !flagDefiners[sel.Sel.Name] {
					return true
				}
				at := 0
				if strings.HasSuffix(sel.Sel.Name, "Var") {
					at = 1
				}
				if at < len(call.Args) {
					if lit, ok := call.Args[at].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						name, _ := strconv.Unquote(lit.Value)
						flags[name] = true
					}
				}
				return true
			})
		}
		out[d.Name()] = flags
	}
	return out
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

// jsonTags records in keys the json name of every tagged struct field of f.
func jsonTags(keys map[string]bool, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		if fl, ok := n.(*ast.Field); ok && fl.Tag != nil {
			tag, _ := strconv.Unquote(fl.Tag.Value)
			if name, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ","); name != "" {
				keys[name] = true
			}
		}
		return true
	})
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

// benchLine is one line of BENCH_history.jsonl: one claimed metric of one
// change on one workload and seed, measured as alternating parent/change
// pairs of the repo benchmark. Commit is empty on the line that the
// measured change itself adds (its hash does not exist yet); Runs, when
// given, holds every pair's readings in pair order.
type benchLine struct {
	PR       int    `json:"pr"`
	Commit   string `json:"commit"`
	Parent   string `json:"parent"`
	Workload string `json:"workload"`
	Seed     int    `json:"seed"`
	Metric   string `json:"metric"`
	Host     string `json:"host"`
	Pairs    int    `json:"pairs"`
	Medians  *struct {
		Parent *float64 `json:"parent"`
		Change *float64 `json:"change"`
	} `json:"medians"`
	Wins *int `json:"wins"`
	Runs *struct {
		Parent []float64 `json:"parent"`
		Change []float64 `json:"change"`
	} `json:"runs"`
}

var commitHash = regexp.MustCompile(`^[0-9a-f]{7,40}$`)

// benchmarkDecl is what BENCHMARK.json declares: workloads and metrics.
type benchmarkDecl struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// readBenchmark decodes BENCHMARK.json.
func readBenchmark(t *testing.T) benchmarkDecl {
	t.Helper()
	var bench benchmarkDecl
	src, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(src, &bench); err != nil {
		t.Fatal(err)
	}
	return bench
}

// TestBenchHistorySchema checks BENCH_history.jsonl, the perf trajectory:
// every line decodes with no unknown field and names a PR, a parent commit,
// a workload and a metric that BENCHMARK.json declares, a seed, the host,
// the pair count, both medians and the wins; lines run in PR order. Where
// the runs are listed, there is one per pair on each side, each median is
// theirs to the three decimals it is written with, and wins counts the
// pairs the change won in the metric's declared direction. Every
// CHANGES.md entry tagged perf_opt from PR 35 on has a line of its own,
// and only the lines of the last PR that CHANGES.md records leave their
// commit empty.
func TestBenchHistorySchema(t *testing.T) {
	bench := readBenchmark(t)
	workloads, better := map[string]bool{}, map[string]string{}
	for _, w := range bench.Workloads {
		workloads[w.Name] = true
	}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		better[m.Name] = m.Better
	}

	changes, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	latest := latestChangesPR(string(changes))
	const sample = `{"pr": 42, "commit": "", "parent": "e4bd18d", "workload": "fleet_fifo", "seed": 1, "metric": "cpu_s",` +
		` "host": "h", "pairs": 1, "medians": {"parent": 2, "change": 1}, "wins": 1}`
	var own benchLine
	if err := json.Unmarshal([]byte(sample), &own); err != nil {
		t.Fatal(err)
	}
	if own.check(0, 42, workloads, better) != nil || own.check(0, 44, workloads, better) == nil {
		t.Fatal("check on a sample: an empty commit must pass on the latest PR's line and fail on an earlier PR's")
	}

	src, err := os.ReadFile("BENCH_history.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	lastPR, recorded := 0, map[int]bool{}
	for i, raw := range strings.Split(strings.TrimSuffix(string(src), "\n"), "\n") {
		at := fmt.Sprintf("BENCH_history.jsonl:%d", i+1)
		var l benchLine
		dec := json.NewDecoder(strings.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&l); err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		if err := l.check(lastPR, latest, workloads, better); err != nil {
			t.Errorf("%s: %v", at, err)
			continue
		}
		lastPR, recorded[l.PR] = l.PR, true
		if l.Runs == nil {
			continue
		}
		p, c := l.Runs.Parent, l.Runs.Change
		if len(p) != l.Pairs || len(c) != l.Pairs {
			t.Errorf("%s: %d parent and %d change runs for %d pairs", at, len(p), len(c), l.Pairs)
			continue
		}
		if math.Abs(median(p)-*l.Medians.Parent) > 0.0005+1e-9 || math.Abs(median(c)-*l.Medians.Change) > 0.0005+1e-9 {
			t.Errorf("%s: medians %v → %v, the runs give %v → %v", at, *l.Medians.Parent, *l.Medians.Change, median(p), median(c))
		}
		wins := 0
		for k := range p {
			if better[l.Metric] == "lower" && c[k] < p[k] || better[l.Metric] == "higher" && c[k] > p[k] {
				wins++
			}
		}
		if wins != *l.Wins {
			t.Errorf("%s: wins %d, the runs give %d", at, *l.Wins, wins)
		}
	}

	const changesSample = "PR 34 (`perf_opt`): before the rule\nPR 35 (`perf_opt`): recorded\n" +
		"PR 36: [simplicity] no tag; `perf_opt` named after the colon\nPR 37 [perf_opt]: not recorded\n"
	if got := perfOptWithoutHistory(changesSample, map[int]bool{35: true}); !slices.Equal(got, []int{37}) {
		t.Fatalf("perfOptWithoutHistory on a sample: %v, want [37]", got)
	}
	if got := latestChangesPR(changesSample); got != 37 {
		t.Fatalf("latestChangesPR on a sample: %d, want 37", got)
	}
	for _, pr := range perfOptWithoutHistory(string(changes), recorded) {
		t.Errorf("CHANGES.md: PR %d is tagged perf_opt but BENCH_history.jsonl has no line for it", pr)
	}
}

// perfOptWithoutHistory returns the PRs, from PR 35 on, whose CHANGES.md
// entry carries the perf_opt tag in its heading (the text before the first
// colon) and that recorded lacks.
func perfOptWithoutHistory(changes string, recorded map[int]bool) []int {
	var missing []int
	for _, line := range strings.Split(changes, "\n") {
		m := changesEntry.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		pr, _ := strconv.Atoi(m[1])
		if pr >= 35 && strings.Contains(m[2], "perf_opt") && !recorded[pr] {
			missing = append(missing, pr)
		}
	}
	return missing
}

// latestChangesPR returns the highest PR number among the CHANGES.md
// entries in changes.
func latestChangesPR(changes string) int {
	latest := 0
	for _, m := range changesEntry.FindAllStringSubmatch(changes, -1) {
		pr, _ := strconv.Atoi(m[1])
		latest = max(latest, pr)
	}
	return latest
}

// changesEntry matches a CHANGES.md entry's heading: its PR number, and
// the rest of the text up to the first colon.
var changesEntry = regexp.MustCompile(`(?m)^PR (\d+)([^:\n]*):`)

// check reports the first required field of l that is missing or names
// something BENCHMARK.json does not declare. Only a line of latest, the
// last PR CHANGES.md records, may leave its commit empty: a later PR knows
// the hash and fills it in.
func (l *benchLine) check(lastPR, latest int, workloads map[string]bool, better map[string]string) error {
	switch {
	case l.PR <= 0 || l.PR < lastPR:
		return fmt.Errorf("pr %d after pr %d", l.PR, lastPR)
	case l.Commit == "" && l.PR != latest:
		return fmt.Errorf("pr %d: commit is empty, but PR %d is recorded after it; fill in its hash", l.PR, latest)
	case l.Commit != "" && !commitHash.MatchString(l.Commit), !commitHash.MatchString(l.Parent):
		return fmt.Errorf("commit %q, parent %q: want hex hashes (commit may be empty on its own PR's line)", l.Commit, l.Parent)
	case !workloads[l.Workload]:
		return fmt.Errorf("workload %q is not in BENCHMARK.json", l.Workload)
	case better[l.Metric] == "":
		return fmt.Errorf("metric %q is not in BENCHMARK.json", l.Metric)
	case l.Seed <= 0 || l.Host == "" || l.Pairs <= 0:
		return fmt.Errorf("seed %d, host %q, pairs %d: all three are required", l.Seed, l.Host, l.Pairs)
	case l.Medians == nil || l.Medians.Parent == nil || l.Medians.Change == nil:
		return fmt.Errorf("needs medians.parent and medians.change")
	case l.Wins == nil || *l.Wins < 0 || *l.Wins > l.Pairs:
		return fmt.Errorf("wins must be given, between 0 and pairs")
	}
	return nil
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
