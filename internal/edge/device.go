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

// NewDevice creates a device with the given configuration; its FPS
// telemetry grows as the run goes (NewSizedDevice sizes it once).
func NewDevice(cfg DeviceConfig) *Device { return NewSizedDevice(cfg, 0) }

// NewSizedDevice creates a device whose FPS telemetry holds seconds whole
// seconds of stream time without growing: a run that knows its length
// sizes it once.
func NewSizedDevice(cfg DeviceConfig, seconds int) *Device {
	return &Device{Config: cfg, fps: NewFPSTracker(seconds)}
}

// BeginTraining marks a training session occupying the device until the
// given virtual time.
func (d *Device) BeginTraining(until float64) {
	if until > d.trainingUntil {
		d.trainingUntil = until
	}
}

// BeginEncoding marks a software-encode window until the given time.
func (d *Device) BeginEncoding(until float64) {
	if until > d.encodingUntil {
		d.encodingUntil = until
	}
}

// frameLoad returns the effective inference rate and the instantaneous λ
// resource usage in [0, 1] of a frame at time t, given the competing load:
// a training session until trainUntil and a software encode until
// encUntil.
func (c *DeviceConfig) frameLoad(t, trainUntil, encUntil float64) (fps, usage float64) {
	fps, usage = c.MaxFPS, c.IdleLoad
	if t < trainUntil {
		fps *= c.TrainFPSFactor
		usage += c.TrainLoad
	}
	if t < encUntil {
		fps *= c.EncodeFPSFactor
		usage += c.EncodeLoad
	}
	return fps, tensor.Clamp(usage, 0, 1)
}

// spend takes one frame's worth off a credit accumulator that has reached
// it, and reports whether it had.
func spend(credit float64) (float64, bool) {
	if credit >= 1 {
		return credit - 1, true
	}
	return credit, false
}

// Tick is called once per incoming camera frame (at the camera's frame
// interval dt). It returns whether the device processes this frame, and
// records FPS and λ telemetry.
//
//shoggoth:hotpath
func (d *Device) Tick(t, dt float64) bool {
	fps, usage := d.Config.frameLoad(t, d.trainingUntil, d.encodingUntil)
	d.fps.Record(t, fps)
	d.usageSum += usage
	d.usageN++
	var processed bool
	d.credit, processed = spend(d.credit + fps*dt)
	return processed
}

// TickFrames makes the n Tick calls for camera frames first … first+n−1,
// frame k at time float64(k)·dt, and returns how many of them the device
// processes. It is those calls with the running values held in locals for
// the span: the credit, the λ sum and the current second's FPS sum and
// count, written back when the second changes and when the span ends.
// Every addition happens in the order Tick makes it, so every bit is the
// same.
//
//shoggoth:hotpath
func (d *Device) TickFrames(first, n int, dt float64) int {
	check := replayTicks(d)
	cfg, train, enc := d.Config, d.trainingUntil, d.encodingUntil
	credit, usageSum := d.credit, d.usageSum
	f := d.fps
	sec, secSum, secN := -1, 0.0, int32(0)
	processed := 0
	for k := first; k < first+n; k++ {
		t := float64(k) * dt
		fps, usage := cfg.frameLoad(t, train, enc)
		if s := int(t); s != sec {
			if sec >= 0 {
				f.sums[sec], f.counts[sec] = secSum, secN
			}
			f.cover(s)
			sec, secSum, secN = s, f.sums[s], f.counts[s]
		}
		secSum += fps
		secN++
		usageSum += usage
		var ok bool
		if credit, ok = spend(credit + fps*dt); ok {
			processed++
		}
	}
	if sec >= 0 {
		f.sums[sec], f.counts[sec] = secSum, secN
	}
	d.credit, d.usageSum = credit, usageSum
	d.usageN += n
	check.matches(d, first, n, dt, processed)
	return processed
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
	counts []int32
}

// NewFPSTracker creates an empty tracker with room for seconds whole
// seconds; Record grows it past that.
func NewFPSTracker(seconds int) *FPSTracker {
	return &FPSTracker{sums: make([]float64, 0, seconds), counts: make([]int32, 0, seconds)}
}

// Record adds one FPS observation at time t.
func (f *FPSTracker) Record(t, fps float64) {
	sec := int(t)
	f.cover(sec)
	f.sums[sec] += fps
	f.counts[sec]++
}

// cover makes room for whole second sec.
func (f *FPSTracker) cover(sec int) {
	if len(f.sums) <= sec { // a tracker sized for the run never grows
		for len(f.sums) <= sec {
			f.sums = append(f.sums, 0)
			f.counts = append(f.counts, 0)
		}
	}
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
		n += int(f.counts[i])
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}
