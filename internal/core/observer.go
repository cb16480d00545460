package core

import "shoggoth/internal/metrics"

// Observer receives streaming events while a System runs. Observers are
// purely additive: attaching one never changes the run's Results (the same
// events are also aggregated there), it only surfaces them as they happen.
type Observer interface {
	// OnWindowMAP fires when a mAP window closes (10 s wide).
	// Windows with no ground truth are skipped, matching Results.WindowMAPs.
	OnWindowMAP(w metrics.WindowScore)
	// OnRateCommand fires when a controller rate command takes effect on the
	// edge sampler.
	OnRateCommand(pt RatePoint)
	// OnTrainingSession fires when a training session's new weights take
	// effect on the deployed student.
	OnTrainingSession(rec SessionRecord)
}
