package shoggoth_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"

	"shoggoth"
)

// goldenResults runs the five stock strategies on UA-DETRAC in quick mode
// (one scenario cycle, seed 1) and returns the indented Results JSON — the
// exact bytes `shoggoth-sim -set strategy=all -set cycles=1 -json` prints. mutate,
// when non-nil, post-processes every config before the run.
func goldenResults(t *testing.T, mutate func(*shoggoth.Config)) []byte {
	t.Helper()
	profile, err := shoggoth.ProfileByName(shoggoth.ProfileDETRAC)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := shoggoth.Grid([]*shoggoth.Profile{profile}, shoggoth.StrategyKinds(),
		shoggoth.WithSeed(1), shoggoth.WithCycles(1))
	if mutate != nil {
		for i := range cfgs {
			mutate(&cfgs[i])
		}
	}
	fleet := &shoggoth.Fleet{}
	all, err := fleet.Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(all); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenResultsByteIdentical locks the compute core's bit-identical
// guarantee end to end: the all-strategy quick-mode Results JSON must be
// byte-for-byte reproducible run-to-run, and must match the golden file
// captured before the workspace refactor (testdata/golden_results.json). Any
// change to float64 op order, RNG consumption or result assembly shows up
// here as a diff.
//
// The committed golden bytes were produced on amd64. Go permits fused
// multiply-add on other architectures, which legally changes low-order bits,
// so the file comparison is amd64-only; the run-to-run comparison holds
// everywhere.
func TestGoldenResultsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-mode deployment run is seconds-long; skipped with -short")
	}
	first := goldenResults(t, nil)
	second := goldenResults(t, nil)
	if !bytes.Equal(first, second) {
		t.Fatal("two identical Run configurations produced different Results JSON")
	}

	golden, err := os.ReadFile("testdata/golden_results.json")
	if err != nil {
		t.Fatal(err)
	}
	if runtime.GOARCH != "amd64" {
		t.Logf("skipping golden-file byte comparison on %s (FMA contraction differs)", runtime.GOARCH)
		return
	}
	if !bytes.Equal(first, golden) {
		t.Fatal("Results JSON diverged from the pre-refactor golden capture; " +
			"the bit-identical guarantee is broken (or an intentional result change " +
			"needs a regenerated testdata/golden_results.json with a justification)")
	}
}

// TestGoldenExplicitFIFOOneWorker locks the scheduling engine's equivalence
// contract: explicitly configuring the frozen default — FIFO policy, one
// teacher worker — must reproduce testdata/golden_results.json byte for
// byte, proving the engine refactor left the default service discipline
// bit-identical rather than merely similar.
func TestGoldenExplicitFIFOOneWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-mode deployment run is seconds-long; skipped with -short")
	}
	if runtime.GOARCH != "amd64" {
		// Skip before the seconds-long fleet run: unlike the default golden
		// test there is no run-to-run comparison here, so off-amd64 the run
		// would assert nothing.
		t.Skipf("golden-file byte comparison is amd64-only (FMA contraction differs on %s)", runtime.GOARCH)
	}
	explicit := goldenResults(t, func(c *shoggoth.Config) {
		c.Cloud.Service.Policy = "fifo"
		c.Cloud.Service.Workers = 1
	})
	golden, err := os.ReadFile("testdata/golden_results.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(explicit, golden) {
		t.Fatal("explicit FIFO x 1-worker diverged from the golden capture; " +
			"the engine's default-equivalence contract is broken")
	}
}

// TestGoldenExplicitExactTier locks the compute tier's default-equivalence
// contract: explicitly requesting ComputeTier "exact" must reproduce
// testdata/golden_results.json byte for byte — the exact tier IS the frozen
// pre-tier compute path, not merely a close approximation of it.
func TestGoldenExplicitExactTier(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-mode deployment run is seconds-long; skipped with -short")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden-file byte comparison is amd64-only (FMA contraction differs on %s)", runtime.GOARCH)
	}
	explicit := goldenResults(t, func(c *shoggoth.Config) {
		c.ComputeTier = "exact"
	})
	golden, err := os.ReadFile("testdata/golden_results.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(explicit, golden) {
		t.Fatal("explicit exact compute tier diverged from the golden capture; " +
			"the tier's default-equivalence contract is broken")
	}
}

// TestGoldenFastTierWithinTolerance is the fast tier's accuracy contract at
// whole-system scale: the all-strategy quick-mode run on the fast tier, at
// four accumulation workers, must reproduce every Results number within a
// 2% relative tolerance of the exact golden capture, and non-numeric fields
// exactly. The fast kernels only reassociate float64 sums (FMA, blocking,
// sharded accumulation), so losses drift at the 1e-9 level per session; the
// tolerance absorbs how discontinuous metrics (threshold crossings in mAP
// windows) amplify that drift over a full deployment.
func TestGoldenFastTierWithinTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-mode deployment run is seconds-long; skipped with -short")
	}
	fast := goldenResults(t, func(c *shoggoth.Config) {
		c.ComputeTier = "fast"
		c.Trainer.AccumWorkers = 4
	})
	golden, err := os.ReadFile("testdata/golden_results.json")
	if err != nil {
		t.Fatal(err)
	}
	var want, got any
	if err := json.Unmarshal(golden, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(fast, &got); err != nil {
		t.Fatal(err)
	}
	compareTolerant(t, "$", want, got, 0.02)
}

// compareTolerant walks two decoded JSON trees in parallel: numbers must
// agree within rel (relative, with an equal absolute floor for values near
// zero), everything else must match exactly.
func compareTolerant(t *testing.T, path string, want, got any, rel float64) {
	t.Helper()
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok || len(g) != len(w) {
			t.Fatalf("%s: shape mismatch: exact %T/%d fast %T", path, want, len(w), got)
		}
		for k, wv := range w {
			gv, ok := g[k]
			if !ok {
				t.Fatalf("%s.%s: missing from fast-tier results", path, k)
			}
			compareTolerant(t, path+"."+k, wv, gv, rel)
		}
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			t.Fatalf("%s: length mismatch: exact %d fast %v", path, len(w), got)
		}
		for i := range w {
			compareTolerant(t, fmt.Sprintf("%s[%d]", path, i), w[i], g[i], rel)
		}
	case float64:
		g, ok := got.(float64)
		if !ok {
			t.Fatalf("%s: exact is a number, fast is %T", path, got)
		}
		if d := math.Abs(g - w); d > rel*math.Max(1, math.Abs(w)) {
			t.Fatalf("%s: fast %v drifted beyond %.0f%% of exact %v", path, g, rel*100, w)
		}
	default:
		if want != got {
			t.Fatalf("%s: exact %v != fast %v", path, want, got)
		}
	}
}
