package edge

import "shoggoth/internal/tensor"

// DeviceConfig models the edge board's real-time behaviour.
type DeviceConfig struct {
	// MaxFPS is the inference throughput with no competing load (the TX2
	// runs the student at 30 fps).
	MaxFPS float64
	// TrainFPSFactor multiplies FPS while an adaptive-training session is
	// running (paper Fig. 4: 30 → 15, i.e. 0.5).
	TrainFPSFactor float64
	// EncodeFPSFactor multiplies FPS while the H.264 encoder is compressing
	// a sample buffer (software encode competes for the same cores).
	EncodeFPSFactor float64
	// Idle/Train/EncodeLoad are λ resource-usage contributions (fractions
	// of device capacity) for the §III-C resource monitor.
	IdleLoad   float64
	TrainLoad  float64
	EncodeLoad float64
}

// DefaultDeviceConfig returns the calibrated TX2-class configuration.
func DefaultDeviceConfig() DeviceConfig {
	return DeviceConfig{
		MaxFPS:          30,
		TrainFPSFactor:  0.5,
		EncodeFPSFactor: 0.6,
		IdleLoad:        0.50,
		TrainLoad:       0.38,
		EncodeLoad:      0.20,
	}
}

// Device tracks the edge board's time-varying load and decides which frames
// get processed at the effective frame rate.
type Device struct {
	Config DeviceConfig

	trainingUntil float64
	encodingUntil float64

	credit float64 // fractional frame-processing budget accumulator

	fps *FPSTracker

	// λ samples since the last report: the report is their mean, so a sum
	// and a count are all Tick has to keep on every frame.
	usageSum float64
	usageN   int
}

// NewDevice creates a device with the given configuration.
func NewDevice(cfg DeviceConfig) *Device {
	return &Device{Config: cfg, fps: NewFPSTracker()}
}

// BeginTraining marks a training session occupying the device until the
// given virtual time.
func (d *Device) BeginTraining(until float64) {
	if until > d.trainingUntil {
		d.trainingUntil = until
	}
}

// Training reports whether a session is active at time t.
func (d *Device) Training(t float64) bool { return t < d.trainingUntil }

// BeginEncoding marks a software-encode window until the given time.
func (d *Device) BeginEncoding(until float64) {
	if until > d.encodingUntil {
		d.encodingUntil = until
	}
}

// Encoding reports whether the encoder is active at time t.
func (d *Device) Encoding(t float64) bool { return t < d.encodingUntil }

// EffectiveFPS returns the inference rate available at time t given the
// competing load.
func (d *Device) EffectiveFPS(t float64) float64 {
	fps := d.Config.MaxFPS
	if d.Training(t) {
		fps *= d.Config.TrainFPSFactor
	}
	if d.Encoding(t) {
		fps *= d.Config.EncodeFPSFactor
	}
	return fps
}

// Tick is called once per incoming camera frame (at the camera's frame
// interval dt). It returns whether the device processes this frame, and
// records FPS and λ telemetry.
func (d *Device) Tick(t, dt float64) bool {
	eff := d.EffectiveFPS(t)
	d.fps.Record(t, eff)
	d.usageSum += d.Usage(t)
	d.usageN++
	d.credit += eff * dt
	if d.credit >= 1 {
		d.credit -= 1
		return true
	}
	return false
}

// Usage returns the instantaneous λ resource usage in [0, 1].
func (d *Device) Usage(t float64) float64 {
	u := d.Config.IdleLoad
	if d.Training(t) {
		u += d.Config.TrainLoad
	}
	if d.Encoding(t) {
		u += d.Config.EncodeLoad
	}
	return tensor.Clamp(u, 0, 1)
}

// DrainUsageReport returns the mean λ since the previous report and resets
// the accumulator (the edge "continuously collects resource usage and sends
// the usage to the cloud").
func (d *Device) DrainUsageReport() float64 {
	m := 0.0
	if d.usageN > 0 {
		m = d.usageSum / float64(d.usageN)
	}
	d.usageSum, d.usageN = 0, 0
	return m
}

// FPS exposes the tracker for reporting (Figure 4).
func (d *Device) FPS() *FPSTracker { return d.fps }

// FPSTracker aggregates effective FPS per whole second of stream time.
type FPSTracker struct {
	sums   []float64
	counts []int
}

// NewFPSTracker creates an empty tracker.
func NewFPSTracker() *FPSTracker { return &FPSTracker{} }

// Record adds one FPS observation at time t.
func (f *FPSTracker) Record(t, fps float64) {
	sec := int(t)
	for len(f.sums) <= sec {
		f.sums = append(f.sums, 0)
		f.counts = append(f.counts, 0)
	}
	f.sums[sec] += fps
	f.counts[sec]++
}

// Series returns the per-second mean FPS series.
func (f *FPSTracker) Series() []float64 {
	out := make([]float64, len(f.sums))
	for i := range out {
		if f.counts[i] > 0 {
			out[i] = f.sums[i] / float64(f.counts[i])
		}
	}
	return out
}

// Average returns the overall mean FPS.
func (f *FPSTracker) Average() float64 {
	var s float64
	var n int
	for i := range f.sums {
		s += f.sums[i]
		n += f.counts[i]
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}
