package scenario

import (
	"bytes"
	"testing"

	"shoggoth/internal/core"
)

// FuzzScenarioLoad holds scenario.Load to its promise: a document it
// accepts expands into a fleet without panicking, and every device config
// passes core.Config.Validate. Seeds (testdata/fuzz/FuzzScenarioLoad) are
// heavy on traces: step, lte and diurnal blocks, outage windows, per-slice
// network overrides and a nested cloud.service block.
func FuzzScenarioLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte) {
		sc, err := Load(bytes.NewReader(doc))
		if err != nil {
			return
		}
		cfgs, err := sc.Configs(core.Shoggoth, 3)
		if err != nil {
			t.Fatalf("Load accepted a scenario that Configs rejects: %v", err)
		}
		for i := range cfgs {
			if err := cfgs[i].Validate(); err != nil {
				t.Fatalf("device %d: Load accepted a scenario whose config fails Validate: %v", i, err)
			}
		}
	})
}
