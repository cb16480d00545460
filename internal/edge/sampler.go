package edge

import "math"

// Sampler selects which camera frames are uploaded for labeling at the
// current sampling rate r (frames/second). The rate is adjusted remotely by
// the cloud's sampling-rate controller (§III-C).
type Sampler struct {
	rate    float64
	credit  float64
	lastT   float64
	started bool
}

// maxCredit caps accrued sampling credit. While the rate meets or exceeds
// the camera FPS, every frame is sampled and the surplus used to pile up
// without bound — so a later rate cut was followed by a burst of stale
// samples until the backlog drained. The cap bounds that burst to at most
// two immediate samples (credit 2 → 1 → 0). With a rate below the camera
// FPS credit stays under 2 on its own (each frame adds < 1 and a sample
// subtracts 1), so sub-FPS sampling is untouched by the clamp.
const maxCredit = 2

// NewSampler creates a sampler at the initial rate.
func NewSampler(rate float64) *Sampler { return &Sampler{rate: rate} }

// Rate returns the current sampling rate in frames/second.
func (s *Sampler) Rate() float64 { return s.rate }

// SetRate applies a rate command from the cloud controller.
func (s *Sampler) SetRate(r float64) {
	if r < 0 {
		r = 0
	}
	s.rate = r
}

// Sample reports whether the frame at time t should be uploaded. It
// accumulates fractional credit so any rate below the camera FPS is honored
// exactly on average.
func (s *Sampler) Sample(t float64) bool {
	if !s.started {
		s.started = true
		s.lastT = t
		s.credit = 1 // sample the first frame: bootstrap labeling quickly
	} else {
		s.credit += (t - s.lastT) * s.rate
		if s.credit > maxCredit {
			s.credit = maxCredit
		}
		s.lastT = t
	}
	if s.credit >= 1 {
		s.credit -= 1
		return true
	}
	return false
}

// creditSlack is taken off the credit SkipBefore still needs before it
// divides. Sample's running sum drifts from the exact one by under 1e-15 a
// call, so this absorbs a million calls whatever the rate.
const creditSlack = 1e-9

// SkipBefore returns how many of the coming Sample calls, made dt apart at
// the current rate, are certain to come before the one that accepts the
// n-th frame from now: a lower bound, +Inf when no number of calls gets
// there, 0 when nothing can be promised (a sampler that has not started
// accepts at once). That acceptance needs n−credit more credit and a call
// adds dt·rate, so with x = (n−credit)/(dt·rate) it is call ⌈x⌉ at the
// earliest and ⌈x⌉−1 calls come first. The bound promises ⌊x⌋−1 of them,
// which holds while x is off by less than a whole call — rounding in this
// division and in Sample's running sum together stay far below that. The
// credit cap is ignored: it only ever delays an acceptance.
func (s *Sampler) SkipBefore(n int, dt float64) float64 {
	need := float64(n) - s.credit
	if !s.started || need <= 0 {
		return 0
	}
	if s.rate <= 0 {
		return math.Inf(1) // credit no longer moves
	}
	return math.Max(0, math.Floor((need-creditSlack)/(dt*s.rate))-1)
}
