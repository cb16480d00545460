package cloud

import (
	"shoggoth/internal/detect"
	"shoggoth/internal/video"
)

// DeviceOptions carries registration-time attributes beyond the identity
// and model arguments.
type DeviceOptions struct {
	// SLOClass names the device's service-level class for the tier's
	// per-class latency/drop metrics. Empty means DefaultSLOClass.
	SLOClass string
	// Weight is the device's fair-queueing weight (0 means the default 1).
	Weight float64
	// Analytic prices this device's labeling instead of executing it: the
	// teacher never runs, labels come back nil, and φ is the deterministic
	// drift model (Teacher.AnalyticPhi). Queueing, worker horizons, coalesce
	// rider pricing and cold starts are charged exactly as for an executed
	// device — only the label computation itself is elided. This is the
	// events-fidelity cloud cost model; analytic and executed devices can
	// share one backend (sampled fidelity does exactly that).
	Analytic bool
}

// Backend is a cloud labeling endpoint a core.System can register on:
// either a bare Service (one teacher pipeline) or a Tier (a routed fleet of
// replicas behind admission control). The zoo of virtual-time methods lives
// on the returned Device; Backend itself only mints devices and reports
// aggregate statistics.
//
// Frame ownership: a backend reads the frames a Device is handed from
// Enqueue (or Admit) until their labeling ends — for Enqueue, until cb has
// been called or false returned — and never afterwards; it writes to none,
// and it keeps no reference to the label sets it delivers.
type Backend interface {
	// RegisterDevice adds one edge device and returns its handle. Duplicate
	// ids are rejected.
	RegisterDevice(id string, teacher *detect.Teacher, labelerCfg LabelerConfig, ctrlCfg *ControllerConfig, opts DeviceOptions) (Device, error)
	// Stats returns the backend-wide queue statistics.
	Stats() QueueStats
}

// Device is one registered edge device's cloud-side handle, independent of
// whether a Service or a Tier backs it.
type Device interface {
	// ID returns the registration id.
	ID() string
	// Enqueue admits one uploaded batch at virtual time now; cb is invoked
	// exactly once with the labeled result unless the batch is dropped
	// (admission control or a full queue), in which case Enqueue returns
	// false and cb never runs.
	Enqueue(frames []*video.Frame, now float64, cb func(BatchResult)) bool
	// Adaptive reports whether the device has a sampling-rate controller.
	Adaptive() bool
	// Rate returns the controller's current sampling rate (0 without one).
	Rate() float64
	// UpdateRate feeds the controller one (φ̄, α, λ̄) report; ok is false
	// without a controller.
	UpdateRate(phiMean, alpha, lambda float64) (rate float64, ok bool)
	// SetWeight sets the fair-queueing weight (non-positive resets to 1).
	SetWeight(w float64)
	// Stats returns the device's queue statistics.
	Stats() QueueStats
}

// RegisterDevice implements Backend on the bare Service: Register plus the
// optional weight. The SLO class is a tier concept; a bare Service ignores
// it.
func (s *Service) RegisterDevice(id string, teacher *detect.Teacher, labelerCfg LabelerConfig, ctrlCfg *ControllerConfig, opts DeviceOptions) (Device, error) {
	d, err := s.register(id, teacher, labelerCfg, ctrlCfg, opts.Analytic)
	if err != nil {
		return nil, err
	}
	if opts.Weight > 0 {
		d.SetWeight(opts.Weight)
	}
	return d, nil
}
