package edge

import (
	"fmt"
	"math"
	"math/bits"

	"shoggoth/internal/tensor"
)

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

	fps FPSTracker

	// λ samples since the last report: the report is their mean, so a sum
	// and a count are all Tick has to keep on every frame.
	usageSum float64
	usageN   int
}

// NewDevice creates a device with the given configuration.
func NewDevice(cfg DeviceConfig) *Device { return &Device{Config: cfg} }

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
	// A product added to a sum is converted, float64(x*y), here and in the
	// span code: arm64 would fuse the pair and round once.
	d.credit, processed = spend(d.credit + float64(fps*dt))
	return processed
}

// TickFrames makes the n Tick calls for camera frames first … first+n−1,
// frame k at time float64(k)·dt, and returns how many of them the device
// processes. It is those calls with the running values held in locals for
// the span: the credit, the λ sum and the open second's FPS sum and count,
// handed to the tracker when the second changes and when the span ends.
//
// The frames under a training or encoding window play one at a time, each
// addition in the order Tick makes it. From the first frame at or after
// both windows to the end of the span every frame has the same rate and λ,
// so that idle tail plays in closed form with the same bits: the credit
// per frame until a frame leaves it unchanged (every later frame then
// repeats that frame), the λ sum in one addRepeated, and the FPS sum and
// count in one addRepeated per whole second the tail covers.
//
//shoggoth:hotpath
func (d *Device) TickFrames(first, n int, dt float64) int {
	check := replayTicks(d)
	cfg, train, enc := d.Config, d.trainingUntil, d.encodingUntil
	credit, usageSum := d.credit, d.usageSum
	f := &d.fps
	sec, secSum, secN := f.sec, f.sum, f.n
	processed := 0
	k, end := first, first+n
	for ; k < end; k++ {
		t := float64(k) * dt
		if !(t < train) && !(t < enc) {
			break
		}
		fps, usage := cfg.frameLoad(t, train, enc)
		if s := int(t); s != sec {
			f.sum, f.n = secSum, secN
			f.open(s)
			sec, secSum, secN = s, 0, 0
		}
		secSum += fps
		secN++
		usageSum += usage
		var ok bool
		if credit, ok = spend(credit + float64(fps*dt)); ok {
			processed++
		}
	}
	if k < end { // the idle tail: frames k … end−1
		fps, usage := cfg.frameLoad(float64(k)*dt, train, enc)
		var tail int
		credit, tail = spendRun(credit, fps, dt, end-k)
		processed += tail
		usageSum = addRepeated(usageSum, usage, end-k)
		perSec := 1 / dt
		for k < end {
			s := int(float64(k) * dt)
			next := secondEnd(k, end, s, dt, perSec)
			if s != sec {
				f.sum, f.n = secSum, secN
				f.open(s)
				sec, secSum, secN = s, 0, 0
			}
			secSum = addRepeated(secSum, fps, next-k)
			secN += int32(next - k)
			k = next
		}
	}
	f.sum, f.n = secSum, secN
	d.credit, d.usageSum = credit, usageSum
	d.usageN += n
	check.matches(d, first, n, dt, processed)
	return processed
}

// spendRun plays m frames at the constant rate fps on the credit and
// returns the credit they leave and how many of them are processed. It
// plays them one at a time until a frame leaves the credit unchanged, bit
// for bit: each later frame then starts from the same credit, so it ends
// the same way, and the rest are counted at once. At a rate of exactly
// one frame per camera frame that happens by the second frame; a credit
// that never repeats plays every frame.
func spendRun(credit, fps, dt float64, m int) (float64, int) {
	processed := 0
	for i := 0; i < m; i++ {
		next, ok := spend(credit + float64(fps*dt))
		if ok {
			processed++
		}
		if math.Float64bits(next) == math.Float64bits(credit) {
			if ok {
				processed += m - 1 - i
			}
			break
		}
		credit = next
	}
	return credit, processed
}

// secondEnd returns the first frame after k, at most end, that lies past
// whole second s, the second frame k lies in: the first k' with
// int(float64(k')·dt) ≠ s, the predicate the per-frame loop splits seconds
// by. It starts from ⌈(s+1)·perSec⌉, perSec being 1/dt, and corrects that
// guess with the predicate itself, which grows with k' because the frame
// times do.
func secondEnd(k, end, s int, dt, perSec float64) int {
	next := end
	if guess := math.Ceil(float64(s+1) * perSec); guess < float64(end) {
		next = max(int(guess), k+1)
	}
	for next > k+1 && int(float64(next-1)*dt) != s {
		next--
	}
	for next < end && int(float64(next)*dt) == s {
		next++
	}
	return next
}

// addRepeated returns what n sequential sum += x return, bit for bit.
//
// While sum and x are both multiples of 2^q and every partial sum stays
// below 2^(53+q), every partial sum is a float64 and each addition is
// exact, so a run of them is one exact multiply-add. With sum and x
// non-negative the partial sums grow, so the run is whole when the last
// one stays below. Otherwise the addition that crosses 2^(53+q) may round;
// it is made as a real +=, and the sum it leaves has a coarser lowest bit,
// so q grows until it meets x's lowest bit. From there each addition
// rounds, and the rest are made one at a time, as they are for a zero,
// negative or non-finite operand.
func addRepeated(sum, x float64, n int) float64 {
	for n > 0 {
		if !(x > 0 && x <= math.MaxFloat64 && sum >= 0 && sum <= math.MaxFloat64) {
			break
		}
		q := lowBit(x)
		if sum != 0 {
			q = min(q, lowBit(sum))
		}
		if q > 970 { // 2^(53+q) would not be finite
			break
		}
		limit := math.Float64frombits(uint64(53+q+1023) << 52)
		if sum >= limit {
			break
		}
		// Below limit a multiple of 2^q is exact, and rounding keeps a
		// value at or past limit there, so this comparison decides on the
		// exact last partial sum. The multiplies are converted: a fused
		// multiply-add would round once.
		if last := sum + float64(float64(n)*x); last < limit {
			return last
		}
		// j is the longest exact run, the most additions whose partial
		// sums stay below limit: ⌈room/x⌉−1, fewer than n since the last
		// does not. The quotient's rounding cannot move its ceiling: room
		// and x are multiples of 2^q and room ≤ 2^(53+q), so a quotient
		// that is not whole lies at least 2^q/x ≥ room/x·2^-53, half its
		// ulp or more, past the whole number below it.
		room := limit - sum
		j := max(int(math.Ceil(room/x))-1, 0)
		if j > 0 {
			sum += float64(float64(j) * x)
			n -= j
		}
		sum += x // the crossing addition, rounded as the loop rounds it
		n--
	}
	for ; n > 0; n-- {
		sum += x
	}
	return sum
}

// lowBit returns the exponent of the lowest set bit of a positive finite
// x: the largest q with x a multiple of 2^q.
func lowBit(x float64) int {
	b := math.Float64bits(x)
	exp, mant := int(b>>52&0x7ff), b&(1<<52-1)
	if exp == 0 { // subnormal: no implicit bit
		return -1074 + bits.TrailingZeros64(mant)
	}
	return exp - 1075 + bits.TrailingZeros64(mant|1<<52)
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
func (d *Device) FPS() *FPSTracker { return &d.fps }

// FPSTracker aggregates effective FPS per whole second of stream time. It
// keeps the closed seconds as runs of equal ones and the last second it
// was given, the open one, as a sum and a count still being added to. A
// device's seconds are almost all alike — MaxFPS on every frame but those
// under a training or encoding window — so a stream of any length holds a
// few runs per window, not a pair of numbers per second. The zero value is
// an empty tracker: second 0 open, with no observation.
type FPSTracker struct {
	runs []fpsRun
	sec  int     // the open second; every second before it is in runs
	sum  float64 // the open second's FPS sum
	n    int32   // the open second's observation count, 0 only while empty
}

// fpsRun is a run of consecutive closed seconds with the same FPS sum, bit
// for bit, and the same count; seconds with no observation are runs of
// (0, 0).
type fpsRun struct {
	sum     float64
	count   int32
	seconds int32
}

// Record adds one FPS observation at time t. Observations come in
// nondecreasing order of their second: one into a second before the open
// one panics.
func (f *FPSTracker) Record(t, fps float64) {
	if s := int(t); s != f.sec {
		f.open(s)
	}
	f.sum += fps
	f.n++
}

// open closes the open second, and any seconds between it and s with no
// observation, and opens whole second s, which must lie past it.
func (f *FPSTracker) open(s int) {
	if s < f.sec {
		panic(fmt.Sprintf("edge: FPS observation in second %d, before the open second %d: seconds must not go back", s, f.sec))
	}
	if s >= math.MaxInt32 {
		panic(fmt.Sprintf("edge: FPS observation in second %d, past the tracker's 2^31−1 seconds", s))
	}
	f.push(f.sum, f.n, 1)
	if gap := s - f.sec - 1; gap > 0 {
		f.push(0, 0, gap)
	}
	f.sec, f.sum, f.n = s, 0, 0
}

// push adds that many closed seconds of the given sum and count to the
// runs: it extends the last run when they match it, bit for bit, and
// starts a run otherwise.
func (f *FPSTracker) push(sum float64, count int32, seconds int) {
	r := f.runs
	if len(r) == 0 || r[len(r)-1].count != count || math.Float64bits(r[len(r)-1].sum) != math.Float64bits(sum) {
		f.runs = append(r, fpsRun{sum: sum, count: count, seconds: int32(seconds)})
		return
	}
	r[len(r)-1].seconds += int32(seconds)
}

// Series returns the per-second mean FPS series, 0 for a second with no
// observation.
func (f *FPSTracker) Series() []float64 {
	if f.n == 0 { // nothing recorded
		return []float64{}
	}
	out := make([]float64, f.sec+1)
	i := 0
	for _, r := range f.runs {
		v := mean(r.sum, r.count)
		for range r.seconds {
			out[i] = v
			i++
		}
	}
	out[i] = mean(f.sum, f.n)
	return out
}

// mean is a second's mean FPS: its sum over its count, 0 with no count.
func mean(sum float64, count int32) float64 {
	if count > 0 {
		return sum / float64(count)
	}
	return 0
}

// Average returns the overall mean FPS: the seconds' sums added in order,
// over their counts.
func (f *FPSTracker) Average() float64 {
	var s float64
	var n int
	for _, r := range f.runs {
		s = addRepeated(s, r.sum, int(r.seconds))
		n += int(r.count) * int(r.seconds)
	}
	s += f.sum
	n += int(f.n)
	if n == 0 {
		return 0
	}
	return s / float64(n)
}
