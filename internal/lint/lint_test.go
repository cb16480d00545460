package lint

import "testing"

// The fixture tests are the analyzers' golden contracts: every expected
// diagnostic is a `// want "regexp"` comment in the fixture source, every
// unexpected diagnostic fails the test, and the allow directives embedded in
// the fixtures prove the escape hatch suppresses exactly what it names.

func TestWallClockFixture(t *testing.T) {
	RunFixture(t, "testdata/src", WallClock, "wallclock")
}

func TestGlobalRandFixture(t *testing.T) {
	RunFixture(t, "testdata/src", GlobalRand, "globalrand")
}

func TestMapRangeFixture(t *testing.T) {
	RunFixture(t, "testdata/src", MapRange, "maprange")
}

func TestHotAllocFixture(t *testing.T) {
	RunFixture(t, "testdata/src", HotAlloc, "hotalloc")
}

func TestLockedCallbackFixture(t *testing.T) {
	RunFixture(t, "testdata/src", LockedCallback, "lockedcallback")
}

// TestWallClockSkipsBinaries pins the package exemption: the same offending
// code is silent under a cmd/ import path.
func TestWallClockSkipsBinaries(t *testing.T) {
	for _, path := range []string{"shoggoth/cmd/shoggoth-sim", "shoggoth/cmd/shoggoth-edge"} {
		if !isBinaryPkg(path) {
			t.Errorf("isBinaryPkg(%q) = false, want true", path)
		}
	}
	for _, path := range []string{"shoggoth/internal/core", "shoggoth", "shoggoth/internal/lint", "shoggoth/examples/demo"} {
		if isBinaryPkg(path) {
			t.Errorf("isBinaryPkg(%q) = true, want false", path)
		}
	}
}

// TestAnalyzerRegistry pins the suite's names: ISSUE-facing identifiers that
// allow directives and -analyzers flags depend on.
func TestAnalyzerRegistry(t *testing.T) {
	want := []string{"wallclock", "globalrand", "maprange", "hotalloc", "lockedcallback"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("All() returned %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("All()[%d].Name = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no Doc", a.Name)
		}
		if sel, ok := ByName([]string{a.Name}); !ok || len(sel) != 1 || sel[0] != a {
			t.Errorf("ByName(%q) did not round-trip", a.Name)
		}
	}
	if _, ok := ByName([]string{"nosuchrule"}); ok {
		t.Error("ByName should reject unknown names")
	}
}
