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
	// Weight is the device's fair-queueing weight (PolicyWFQ share); values
	// <= 0 mean the default 1. It is fixed at registration.
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

// Backend is a cloud labeling endpoint a core.System can register on: a
// Tier (a routed fleet of teacher replicas behind admission control, one
// replica by default) or internal/rpc's Backend (a live cloud over HTTP,
// priced on a private Tier). The zoo of virtual-time methods lives on the
// returned Device; Backend itself only mints devices and reports aggregate
// statistics.
//
// Frame ownership: a backend reads the frames a Device is handed from
// Enqueue (or Admit) until their labeling ends — for Enqueue, until cb has
// returned or Enqueue has returned false — and never afterwards; it writes
// to none, and it keeps no reference to the label sets it delivers. For an
// analytic device labeling ends inside Enqueue: a batch that waits keeps the
// φs it was priced at, not its frames, so the backend reads them only
// during Enqueue. The caller may then reuse the frames and the slice
// holding them: a simulated edge recycles both, and an events-fidelity edge
// builds its frames for the length of the call only. The BatchResult's Phis
// are borrowed for the callback only (see BatchResult).
type Backend interface {
	// RegisterDevice adds one edge device and returns its handle. Duplicate
	// ids are rejected.
	RegisterDevice(id string, teacher *detect.Teacher, labelerCfg LabelerConfig, ctrlCfg *ControllerConfig, opts DeviceOptions) (Device, error)
	// Stats returns the backend-wide queue statistics.
	Stats() QueueStats
}

// Device is one registered edge device's cloud-side handle, whichever
// Backend minted it. Its fair-queueing weight and SLO class are fixed at
// registration (DeviceOptions).
type Device interface {
	// ID returns the registration id.
	ID() string
	// Enqueue admits one uploaded batch at virtual time now; cb is invoked
	// exactly once with the labeled result unless the batch is dropped
	// (admission control or a full queue), in which case Enqueue returns
	// false and cb never runs. The frames stay the caller's: it may reuse
	// them once cb has returned or Enqueue has returned false, and an
	// analytic device's once Enqueue has returned.
	Enqueue(frames []*video.Frame, now float64, cb func(BatchResult)) bool
	// Adaptive reports whether the device has a sampling-rate controller.
	Adaptive() bool
	// Rate returns the controller's current sampling rate (0 without one).
	Rate() float64
	// UpdateRate feeds the controller one (φ̄, α, λ̄) report; ok is false
	// without a controller.
	UpdateRate(phiMean, alpha, lambda float64) (rate float64, ok bool)
	// Stats returns the device's queue statistics.
	Stats() QueueStats
}
