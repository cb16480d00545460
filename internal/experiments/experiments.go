// Package experiments regenerates every table and figure of the paper's
// evaluation section (Table I, Figure 4, Table II, Table III, Figure 5) on
// the simulated substrate. Each generator returns a result struct with a
// Render method that prints the measurement next to the paper's reported
// values, and is registered by name for shoggoth-sim's exp spec key (Run).
// All generators run their configs through the public shoggoth.Fleet or
// Cluster, which bound concurrency and share one pretrained student per
// profile.
package experiments

import (
	"context"
	"fmt"

	"shoggoth"
	"shoggoth/internal/core"
	"shoggoth/internal/detect"
	"shoggoth/internal/video"
)

// Mode scales experiment cost. Cycles is the number of scenario-script
// passes per run (the paper streams hours of video; two cycles are enough
// for retention effects to show, one cycle for a quick look). Workers
// bounds the fleet's concurrent sessions (0 = GOMAXPROCS).
type Mode struct {
	Cycles  float64
	Seed    uint64
	Workers int
}

// sharedCache hands every run on a profile the identical deployed model,
// across all experiments in a process.
var sharedCache shoggoth.StudentCache

// PretrainedStudent returns the cached offline-pretrained student for a
// profile (pretraining once per profile keeps experiment suites fast).
func PretrainedStudent(p *video.Profile) *detect.Student {
	return sharedCache.Get(p)
}

// paperKinds returns the five Table I columns. The registry may hold more
// strategies (that is the point of it), but the paper's artefacts always
// compare exactly these.
func paperKinds() []core.StrategyKind {
	return []core.StrategyKind{core.EdgeOnly, core.CloudOnly, core.Prompt, core.AMS, core.Shoggoth}
}

// configFor builds the calibrated config for one run under a mode.
// Pretrained is left nil: runAll's fleet injects the shared cached student,
// which is identical to what the run would pretrain itself.
func configFor(kind core.StrategyKind, p *video.Profile, m Mode) core.Config {
	cfg := core.NewConfig(kind, p)
	cfg.DurationSec = m.Cycles * p.ScriptDuration()
	cfg.Seed = m.Seed
	return cfg
}

// runAll executes the configs on a fleet worker pool and returns results in
// input order.
func runAll(m Mode, cfgs []core.Config) ([]*core.Results, error) {
	fleet := &shoggoth.Fleet{Workers: m.Workers, Cache: &sharedCache}
	return fleet.Run(context.Background(), cfgs)
}

func pct(v float64) string { return fmt.Sprintf("%.1f", v*100) }
