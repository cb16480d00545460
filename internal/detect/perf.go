package detect

// PerfCounters accumulates the wall-clock cost of a session's compute hot
// paths: student inference on the edge and adaptive-training sessions. They
// are workspace state — owned by one session, updated single-threaded as its
// virtual timeline executes — and are diagnostics only: nothing here feeds
// back into Results, so enabling them cannot perturb a run.
type PerfCounters struct {
	// InferFrames counts every frame a session inferred, shared ones
	// included. InferShared counts the shared ones: frames whose result
	// came from a stream group's InferMemo, because another session with
	// the same weights inferred the frame first.
	InferFrames   int64
	InferShared   int64
	InferSeconds  float64 // wall-clock seconds spent in Student.Infer
	TrainSessions int64   // completed adaptive-training sessions
	TrainSteps    int64   // SGD steps across all sessions
	TrainSeconds  float64 // wall-clock seconds spent inside RunSession

	// Clock supplies the timestamps the *Seconds counters are measured
	// with: monotonic seconds from an arbitrary epoch. It is nil by
	// default — sim-path code never reads the machine clock (the wallclock
	// analyzer enforces this), so timing costs nothing unless a binary
	// opts in by injecting a real clock (shoggoth.WallClock via
	// Config.PerfClock). With a nil Clock the duration counters stay zero
	// and the throughput accessors report 0.
	Clock func() float64
}

// Now reads the injected clock; it is safe on a nil receiver or nil Clock,
// returning 0 so uninstrumented runs measure nothing.
func (c *PerfCounters) Now() float64 {
	if c == nil || c.Clock == nil {
		return 0
	}
	return c.Clock()
}

// Add accumulates o into c (used by fleet-level aggregation).
func (c *PerfCounters) Add(o *PerfCounters) {
	c.InferFrames += o.InferFrames
	c.InferShared += o.InferShared
	c.InferSeconds += o.InferSeconds
	c.TrainSessions += o.TrainSessions
	c.TrainSteps += o.TrainSteps
	c.TrainSeconds += o.TrainSeconds
}

// InferFPS returns achieved inference throughput in frames per wall-clock
// second (0 when nothing ran).
func (c *PerfCounters) InferFPS() float64 {
	if c.InferSeconds <= 0 {
		return 0
	}
	return float64(c.InferFrames) / c.InferSeconds
}

// TrainStepsPerSec returns achieved training throughput in SGD steps per
// wall-clock second (0 when nothing ran).
func (c *PerfCounters) TrainStepsPerSec() float64 {
	if c.TrainSeconds <= 0 {
		return 0
	}
	return float64(c.TrainSteps) / c.TrainSeconds
}
