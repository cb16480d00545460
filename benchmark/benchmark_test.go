package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"shoggoth"
)

// TestEveryDeclaredMetricIsEmitted runs each workload at the tiny internal
// size, once untraced and once traced, and checks the contract between
// BENCHMARK.json and the program: every declared name is emitted and
// well-formed, every metric has a unit, a direction and (end to end) a
// bound, the exact rows repeat across the two runs, and every span's parent
// resolves.
func TestEveryDeclaredMetricIsEmitted(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root) // validates names, units, directions, bounds
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	outDir := t.TempDir()
	cache := &shoggoth.StudentCache{} // pretrain once for the whole test

	for _, name := range sp.workloadNames() {
		rc := runConfig{root: root, spec: sp, workload: name, seed: 7, seconds: 1, sz: tinySizes, outDir: outDir, cache: cache}
		untraced, err := runWorkload(rc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkEmitted(t, name, sp.EndToEnd, untraced)
		for _, d := range sp.EndToEnd {
			if untraced.Result.Metrics[d.Name].Value == 0 {
				t.Errorf("%s: end-to-end metric %s is zero", name, d.Name)
			}
		}

		rc.traced = true
		traced, err := runWorkload(rc)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		checkEmitted(t, name, sp.PerLayer, traced)
		if traced.Digest != untraced.Digest {
			t.Errorf("%s: outputs differ between two runs of one seed", name)
		}
		for row, v := range untraced.Counts {
			// The traced run adds rows only it can see and never drops one.
			if got, ok := traced.Counts[row]; !ok || got != v {
				t.Errorf("%s: exact count %s is %v untraced and %v traced", name, row, v, got)
			}
		}
		checkSpans(t, filepath.Join(outDir, "trace_"+name+".json"))
	}
}

func checkEmitted(t *testing.T, workload string, defs []metricDef, rec *record) {
	t.Helper()
	if !rec.Result.Correct || rec.Result.Attempted < 1 || rec.Result.Failed != 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d problems=%v", workload,
			rec.Result.Correct, rec.Result.Attempted, rec.Result.Failed, rec.Problems)
	}
	if len(rec.Result.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d declared", workload, len(rec.Result.Metrics), len(defs))
	}
	for _, d := range defs {
		got, ok := rec.Result.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: declared metric %s not emitted", workload, d.Name)
		} else if got.Unit != d.Unit {
			t.Errorf("%s: %s emitted in %q, declared in %q", workload, d.Name, got.Unit, d.Unit)
		}
	}
}

func checkSpans(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	ids := map[int]bool{0: true}
	for _, s := range spans {
		ids[s.ID] = true
	}
	for _, s := range spans {
		if !ids[s.Parent] || s.End < s.Start || s.Run != spans[0].Run {
			t.Errorf("%s: bad span %+v", path, s)
		}
	}
}

// TestProfileGrouping pins the symbol-to-layer mapping of the CPU profile.
func TestProfileGrouping(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"shoggoth/internal/tensor.MulBiasIntoNZ", "shoggoth/internal/nn.(*Dense).Forward"}, "tensor"},
		{[]string{"shoggoth.(*Cluster).runEvents"}, "root"},
		{[]string{"shoggoth/internal/geom.IoU", "shoggoth/internal/metrics.MAP"}, "geom"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.mallocgc", "shoggoth/internal/core.(*System).collect"}, "runtime"},
		{[]string{"encoding/gob.(*Decoder).Decode"}, "stdlib"},
		{[]string{"slices.pdqsortCmpFunc[go.shape.struct { shoggoth/internal/sim.at float64 }]"}, "stdlib"},
		{[]string{"main.(*unitBench).row"}, "other"},
	} {
		if got := groupOf(c.stack); got != c.want {
			t.Errorf("groupOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestCheckOutcomes pins the cross-commit gate on the simulated outcomes: the
// reference passes against itself, a row worse than its bound fails, and a
// seed the reference lacks is held to nothing.
func TestCheckOutcomes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the reference was recorded on amd64; elsewhere the digest is not compared")
	}
	var all map[string]map[string]expectedOutcome
	if err := json.Unmarshal(outcomesJSON, &all); err != nil {
		t.Fatal(err)
	}
	for workload := range workloads {
		if len(all[workload]) == 0 {
			t.Errorf("expected/outcomes.json has no seed for %s", workload)
		}
	}
	ref := all["table1_grid"]["1"]
	if problems, note := checkOutcomes("table1_grid", 1, ref.Digest+"rest", ref.Metrics); len(problems) > 0 || !strings.HasPrefix(note, "same") {
		t.Errorf("the reference fails against itself: %v, digest %q", problems, note)
	}
	worse := map[string]float64{}
	for name, v := range ref.Metrics {
		worse[name] = v
	}
	worse["map50_gain_pts"] -= 0.6
	worse["uplink_vs_cloud_only"] *= 1.06
	if problems, note := checkOutcomes("table1_grid", 1, "0000", worse); len(problems) != 2 || !strings.HasPrefix(note, "DIFFERS") {
		t.Errorf("want 2 failed rows and a differing digest, got %v, digest %q", problems, note)
	}
	if problems, note := checkOutcomes("table1_grid", 1<<40, "0000", worse); len(problems) > 0 || !strings.HasPrefix(note, "no reference") {
		t.Errorf("a seed the reference lacks must pass unchecked, got %v, digest %q", problems, note)
	}
}
