package lint

import (
	"go/types"
	"regexp"
	"sync"
	"testing"
)

// repo is the whole module, type-checked once for every test that reads it.
var repo struct {
	once sync.Once
	pkgs []*Package
	err  error
}

// loadRepo returns the module's packages (non-test files), loading them on
// first use. Skipped under -short — it type-checks every package.
func loadRepo(t *testing.T) []*Package {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped under -short")
	}
	repo.once.Do(func() { repo.pkgs, repo.err = Load("../..", []string{"./..."}) })
	if repo.err != nil {
		t.Fatalf("load module: %v", repo.err)
	}
	return repo.pkgs
}

// TestRepoIsClean runs the full suite over the whole module, mirroring CI's
// `go run ./cmd/shoggoth-vet ./...`: the repository must carry zero
// unjustified findings.
func TestRepoIsClean(t *testing.T) {
	for _, d := range Run(loadRepo(t), All()) {
		t.Errorf("%s", d)
	}
}

// withoutACaller lists the internal functions that nothing the module ships
// reaches (see reachRoot for the roots) and that stay anyway, each with the
// reason. Everything else without a caller is deleted, not listed; root
// package code is never listed.
var withoutACaller = map[string]string{
	"(*shoggoth/internal/cloud.Tier).Devices":                             "test accessor: tier_test.go reads the tier's registrations",
	"(*shoggoth/internal/cloud.Tier).Replicas":                            "test accessor: tier_test.go reads the replica count",
	"(*shoggoth/internal/cloud.Tier).Router":                              "test accessor: tier_test.go reads the resolved router",
	"(*shoggoth/internal/experiments.Table1Result).OrderingHolds":         "paper claim, held by experiments_test.go; ROADMAP 6 sweeps it over seeds",
	"(*shoggoth/internal/experiments.Table3Result).AdaptiveBeatsAllFixed": "paper claim, held by experiments_test.go; ROADMAP 6 sweeps it over seeds",
	"shoggoth/internal/experiments.PretrainedStudent":                     "test fixture: experiments_test.go shares the suite's pretrained students",
	"shoggoth/internal/lint.RunFixture":                                   "analyzer fixture harness that lint_test.go drives",
	"shoggoth/internal/lint.collectWants":                                 "analyzer fixture harness that lint_test.go drives",
	"shoggoth/internal/lint.newFixtureLoader":                             "analyzer fixture harness that lint_test.go drives",
	"(*shoggoth/internal/lint.fixtureLoader).lookupExport":                "analyzer fixture harness that lint_test.go drives",
	"(*shoggoth/internal/lint.wantSet).claim":                             "analyzer fixture harness that lint_test.go drives",
	"(*shoggoth/internal/lint.wantSet).reportUnclaimed":                   "analyzer fixture harness that lint_test.go drives",
	"(*shoggoth/internal/metrics.Collector).Frames":                       "test accessor: collector tests hold the frame count to the oracle's",
	"shoggoth/internal/metrics.AverageIoU":                                "one-shot entry to the scorer the Collector runs; collector_test.go holds it to the map-based oracle",
	"(*shoggoth/internal/netsim.SharedMedium).Active":                     "test accessor: medium_test.go reads the medium's transfer counts",
	"(*shoggoth/internal/netsim.SharedMedium).Completed":                  "test accessor: medium_test.go reads the medium's transfer counts",
	"(*shoggoth/internal/netsim.SharedMedium).MaxConcurrent":              "test accessor: medium_test.go reads the medium's transfer counts",
	"(shoggoth/internal/netsim.Link).TransferSeconds":                     "trace oracle: the closed form netsim.TransferSeconds is held to",
	"(*shoggoth/internal/replay.Memory).Reset":                            "test driver: memory_test.go empties a memory between cases",
	"(*shoggoth/internal/replay.Memory).Runs":                             "test accessor: memory_test.go reads the run counter",
	"(*shoggoth/internal/replay.Memory).Sample":                           "oracle: SampleInto must consume the randomness Sample does",
	"(*shoggoth/internal/replay.Memory).Samples":                          "test accessor: replay and detect tests read the stored samples",
	"shoggoth/internal/rpc.DecodeLabelRequest":                            "oracle: the fresh-memory decoder the pooled arena decode is fuzzed against",
	"(*shoggoth/internal/sim.Engine).heapErr":                             "shoggothdebug only: check_debug.go asserts the heap after every batch",
	"(*shoggoth/internal/sim.Scheduler).ExecutedQuiet":                    "shoggothdebug only: core's wake check excuses an early flush only after an eager event",
	"(*shoggoth/internal/sim.Scheduler).After":                            "test driver: scheduler, medium and fidelity tests schedule relative events",
	"(*shoggoth/internal/sim.Scheduler).Pending":                          "test accessor: scheduler and occupancy tests read the queue length",
	"(*shoggoth/internal/tensor.Matrix).Equal":                            "fixture: tests across packages compare matrices with it",
	"shoggoth/internal/tensor.FromRows":                                   "fixture builder: nn and tensor tests build matrices with it",
	"shoggoth/internal/tensor.FromSlice":                                  "fixture builder: nn and tensor tests wrap slices with it",
	"shoggoth/internal/tensor.MeanRows":                                   "fixture builder: nn and tensor tests take column means with it",
	"shoggoth/internal/tensor.VarRows":                                    "fixture builder: nn and tensor tests take column variances with it",
}

// TestNoInternalCodeWithoutACaller keeps the module from carrying code that
// only its own tests call: every function or method of an internal package
// or the root package, and every exported type, alias, var and const group
// of the root package, must be reached from a binary, the benchmark runner,
// a root-package Example, an initializer or an interface method. An
// internal function may instead be listed in withoutACaller with its
// reason; root package code is deleted. A listed name that was deleted or
// gained a caller must leave the list.
func TestNoInternalCodeWithoutACaller(t *testing.T) {
	pkgs := loadRepo(t)
	unreached, declared := unreachedCode(pkgs)
	for _, name := range sortedNames(unreached) {
		u := unreached[name]
		switch _, listed := withoutACaller[name]; {
		case u.Root:
			t.Errorf("%s:%d: %s (%d lines) is used by no binary, benchmark or Example: delete it",
				u.Pos.Filename, u.Pos.Line, name, u.Lines)
		case !listed:
			t.Errorf("%s:%d: %s (%d lines) has no caller outside tests: delete it, or list it in withoutACaller with the reason it stays",
				u.Pos.Filename, u.Pos.Line, name, u.Lines)
		}
	}
	for _, name := range sortedNames(withoutACaller) {
		switch u, stillUnreached := unreached[name]; {
		case u.Root:
			t.Errorf("withoutACaller lists %s, which the root package declares: delete it instead", name)
		case !declared[name]:
			t.Errorf("withoutACaller lists %s, which no longer exists: drop the entry", name)
		case !stillUnreached:
			t.Errorf("withoutACaller lists %s, which now has a caller: drop the entry", name)
		}
	}

	t.Run("hotalloc table", func(t *testing.T) {
		var tensor *types.Package
		for _, p := range pkgs {
			if p.Path == "shoggoth/internal/tensor" {
				tensor = p.Types
			}
		}
		if tensor == nil {
			t.Fatal("internal/tensor not loaded")
		}
		mentioned := regexp.MustCompile(`tensor\.(\w+)`)
		for _, name := range sortedNames(tensorAllocFuncs) {
			if !tensorFuncExists(tensor, name) {
				t.Errorf("tensorAllocFuncs names tensor.%s, which no longer exists: drop the entry", name)
			}
			repl := tensorAllocFuncs[name]
			for _, m := range mentioned.FindAllStringSubmatch(repl, -1) {
				if !tensorFuncExists(tensor, m[1]) {
					t.Errorf("tensorAllocFuncs replaces tensor.%s with %q, but tensor.%s no longer exists", name, repl, m[1])
				}
			}
		}
	})
}

// tensorFuncExists reports whether pkg declares a function, or a method on
// one of its types, with the given name — what hotalloc matches a call on.
func tensorFuncExists(pkg *types.Package, name string) bool {
	scope := pkg.Scope()
	if _, ok := scope.Lookup(name).(*types.Func); ok {
		return true
	}
	for _, tn := range scope.Names() {
		if obj, ok := scope.Lookup(tn).(*types.TypeName); ok {
			if m, _, _ := types.LookupFieldOrMethod(types.NewPointer(obj.Type()), true, pkg, name); m != nil {
				if _, isFunc := m.(*types.Func); isFunc {
					return true
				}
			}
		}
	}
	return false
}
