package shoggoth

import (
	"context"

	"shoggoth/internal/core"
	"shoggoth/internal/metrics"
)

// Session is a streaming experiment run: where Run executes a deployment to
// completion in one blocking call, a Session advances frame by frame under
// caller control, surfaces events through an Observer while the stream
// plays, and cancels cleanly via RunContext. Run(cfg) is a thin wrapper
// over a Session and returns identical Results for the same config.
type Session struct {
	sys *core.System
}

// NewSession builds a deployment for the config without starting it.
func NewSession(cfg Config) (*Session, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	return &Session{sys: sys}, nil
}

// Observe attaches a streaming observer. Call it before the first Step;
// observers are purely additive and never change the run's Results.
func (s *Session) Observe(o Observer) { s.sys.SetObserver(o) }

// Step advances the deployment by one camera frame (plus every cloud,
// network and training event due before it) and reports whether frames
// remain. Call Results once it returns false.
func (s *Session) Step() bool { return s.sys.Step() }

// Results finalizes the run and returns the aggregated results. A session
// stepped partway through its stream settles at the elapsed stream time
// (Duration and bandwidth rates describe what actually played); a
// completed one settles at the configured duration. Once called, the
// session is closed — further Steps report no frames remain. Idempotent.
func (s *Session) Results() *Results { return s.sys.Finish() }

// System exposes the underlying deployment (for inspection such as
// Student(); mutate it and determinism guarantees are off).
func (s *Session) System() *core.System { return s.sys }

// RunContext plays the whole stream, honouring context cancellation
// between frames at full fidelity and between uploads at events fidelity,
// and returns the aggregated results.
func (s *Session) RunContext(ctx context.Context) (*Results, error) { return s.sys.RunContext(ctx) }

// Observer receives streaming events from a running Session: per-window
// accuracy, controller rate commands and training sessions.
type Observer = core.Observer

// ObserverFuncs adapts plain functions to the Observer interface; nil
// fields are skipped.
type ObserverFuncs struct {
	WindowMAP       func(w metrics.WindowScore)
	RateCommand     func(pt RatePoint)
	TrainingSession func(rec SessionRecord)
}

// OnWindowMAP implements Observer.
func (o *ObserverFuncs) OnWindowMAP(w metrics.WindowScore) {
	if o.WindowMAP != nil {
		o.WindowMAP(w)
	}
}

// OnRateCommand implements Observer.
func (o *ObserverFuncs) OnRateCommand(pt RatePoint) {
	if o.RateCommand != nil {
		o.RateCommand(pt)
	}
}

// OnTrainingSession implements Observer.
func (o *ObserverFuncs) OnTrainingSession(rec SessionRecord) {
	if o.TrainingSession != nil {
		o.TrainingSession(rec)
	}
}
