package core

import (
	"shoggoth/internal/detect"
	"shoggoth/internal/tensor"
)

// Workspace is the per-session compute scratch: a size-keyed buffer pool
// shared by the session's hot paths and the wall-clock perf counters they
// update. Every System owns exactly one, created with it, and threads it to
// the components that train or infer (the deployed student, the strategy's
// trainer). Nothing here is ever shared across sessions — the Fleet runs
// sessions on separate Systems, so concurrent sessions never touch each
// other's scratch (guarded by the -race run over the Fleet tests).
//
// Counters are diagnostics only: they never feed back into Results, so two
// runs of the same config produce byte-identical Results regardless of how
// fast the hardware executed them.
type Workspace struct {
	Pool *tensor.Pool
	Perf *detect.PerfCounters
}

// newWorkspace creates an empty per-session workspace. clock, usually nil,
// is the injected perf timestamp source (Config.PerfClock): nil keeps the
// sim path free of machine-clock reads and the duration counters at zero.
func newWorkspace(clock func() float64) *Workspace {
	return &Workspace{Pool: tensor.NewPool(), Perf: &detect.PerfCounters{Clock: clock}}
}
