package shoggoth_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"shoggoth"
)

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
	fastTier := mutated(onFleet(0), func(c *shoggoth.Config) {
		c.ComputeTier = "fast"
		c.Trainer.AccumWorkers = 4
	})
	fast := devices(t, fastTier(t, goldenConfigs(t)))
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
