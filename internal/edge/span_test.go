package edge

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// cloneDevice copies a device and its FPS telemetry.
func cloneDevice(d *Device) *Device {
	c := *d
	c.fps.runs = slices.Clone(d.fps.runs)
	return &c
}

// sameDevice reports the first accumulator on which a and b differ, bit
// for bit, or "" when none does.
func sameDevice(a, b *Device) string {
	bits := math.Float64bits
	switch {
	case bits(a.credit) != bits(b.credit):
		return "credit"
	case bits(a.usageSum) != bits(b.usageSum) || a.usageN != b.usageN:
		return "λ sum or count"
	case !slices.EqualFunc(a.fps.runs, b.fps.runs, func(x, y fpsRun) bool {
		return bits(x.sum) == bits(y.sum) && x.count == y.count && x.seconds == y.seconds
	}):
		return "FPS runs"
	case a.fps.sec != b.fps.sec || bits(a.fps.sum) != bits(b.fps.sum) || a.fps.n != b.fps.n:
		return "FPS open second"
	case a.trainingUntil != b.trainingUntil || a.encodingUntil != b.encodingUntil:
		return "load windows"
	}
	return ""
}

// checkTickFrames plays frames first … first+n−1 through TickFrames on d
// and through n Tick calls on a copy, and fails unless both process the
// same frames and leave every accumulator with the same bits.
func checkTickFrames(t *testing.T, name string, d *Device, first, n int, dt float64) {
	t.Helper()
	want := cloneDevice(d)
	wantProcessed := 0
	for k := first; k < first+n; k++ {
		if want.Tick(float64(k)*dt, dt) {
			wantProcessed++
		}
	}
	if processed := d.TickFrames(first, n, dt); processed != wantProcessed {
		t.Fatalf("%s (frames %d…%d, dt %v): TickFrames processed %d frames, Tick %d", name, first, first+n-1, dt, processed, wantProcessed)
	}
	if diff := sameDevice(d, want); diff != "" {
		t.Fatalf("%s (frames %d…%d, dt %v): TickFrames and Tick leave different %s", name, first, first+n-1, dt, diff)
	}
}

// TestTickFramesMatchesTicks is the oracle for the span's device half:
// TickFrames(first, n, dt) leaves every accumulator, and the FPS runs and
// open second, where n calls of Tick leave them, bit for bit, and counts
// the frames those calls process.
//
// The first generator draws every load at random: training and encoding
// windows that start before and end inside the span, spans that cross
// second boundaries or stay inside one, trackers that already hold part of
// the current second, effective rates below, at and above the camera FPS,
// and empty spans. Its random λ almost never lets an
// idle tail add in closed form.
//
// The second generator aims at the closed form: the default loads with
// MaxFPS at a camera rate of 10, 25 or 30, idle tails up to a minute long,
// λ sums preset just below a power of two, and credit at 0 and near 1. A
// quarter of its cases must be refused part of the way — a 29.97 camera
// under a 30 fps device, a λ that is not dyadic, MaxFPS above the camera
// rate — so a closed form taken where it does not hold shows as a bit
// difference.
func TestTickFramesMatchesTicks(t *testing.T) {
	rng := rand.New(rand.NewPCG(39, 1))
	pick := func(xs ...float64) float64 { return xs[rng.IntN(len(xs))] }
	for i := 0; i < 3000; i++ {
		camera := pick(10, 25, 29.97, 30)
		dt := 1 / camera
		cfg := DefaultDeviceConfig()
		cfg.MaxFPS = pick(camera/2, camera, 30, 2*camera, camera*rng.Float64())
		cfg.TrainFPSFactor, cfg.EncodeFPSFactor = rng.Float64(), rng.Float64()
		cfg.IdleLoad, cfg.TrainLoad, cfg.EncodeLoad = rng.Float64(), rng.Float64(), rng.Float64()

		first := rng.IntN(int(20 * camera))
		n := rng.IntN(int(4 * camera))
		switch rng.IntN(6) {
		case 0:
			n = 0
		case 1:
			n = 1
		}
		end := float64(first+n) * dt
		d := NewDevice(cfg)
		// Telemetry from the frames before the span, the current second's
		// included, and a λ report half drained.
		for k := 0; k < first; k += 1 + rng.IntN(5) {
			d.Tick(float64(k)*dt, dt)
		}
		d.credit = pick(0, 0.5, 0.999999, rng.Float64(), 3*rng.Float64())
		if rng.IntN(3) == 0 {
			d.DrainUsageReport()
		}
		start := float64(first) * dt
		if rng.IntN(2) == 0 {
			d.BeginTraining(start + (end-start+1)*rng.Float64())
		}
		if rng.IntN(2) == 0 {
			d.BeginEncoding(start + (end-start+1)*rng.Float64())
		}
		checkTickFrames(t, fmt.Sprintf("random case %d at %v fps", i, camera), d, first, n, dt)
	}

	for i := 0; i < 3000; i++ {
		camera := pick(10, 25, 30)
		cfg := DefaultDeviceConfig()
		cfg.MaxFPS = camera
		refuse := ""
		switch rng.IntN(12) {
		case 0:
			camera, cfg.MaxFPS, refuse = 29.97, 30, "29.97 fps camera"
		case 1:
			cfg.IdleLoad, refuse = pick(0.38, 0.1, 1.0/3), "non-dyadic λ"
		case 2:
			cfg.MaxFPS, refuse = pick(camera+1, 1.5*camera, 2*camera), "MaxFPS above the camera"
		}
		dt := 1 / camera
		first := rng.IntN(int(600 * camera))
		n := rng.IntN(int(60*camera) + 1)
		end := float64(first+n) * dt
		d := NewDevice(cfg)
		// Part of the current second already ticked, then the presets.
		for k := first - rng.IntN(int(camera)); k < first; k++ {
			if k >= 0 {
				d.Tick(float64(k)*dt, dt)
			}
		}
		pow := math.Ldexp(1, rng.IntN(60)-4)
		d.usageSum = pick(0, pow-0.5, pow-0.5*float64(rng.IntN(n+1)), math.Nextafter(pow, 0), 1<<52-float64(rng.IntN(n+1)), 1e4*rng.Float64())
		d.credit = pick(0, 0, 1-0x1p-52, 0.999999, 1-0x1p-30, rng.Float64())
		start := float64(first) * dt
		switch rng.IntN(4) {
		case 0: // a training window that ends inside the span
			d.BeginTraining(start + (end-start)*rng.Float64())
		case 1: // an encoding window that ends inside the span
			d.BeginEncoding(start + (end-start)*rng.Float64())
		case 2: // windows long over
			d.BeginTraining(start * rng.Float64())
			d.BeginEncoding(start * rng.Float64())
		}
		name := fmt.Sprintf("idle case %d at %v fps", i, camera)
		if refuse != "" {
			name += " (" + refuse + ")"
		}
		checkTickFrames(t, name, d, first, n, dt)
	}
}

// TestAddRepeatedMatchesLoop holds addRepeated(sum, x, n) to n sequential
// sum += x by Float64bits: sums of ±0, just below and above powers of two
// (one to several binade crossings), near 2^52 and 2^53 where 0.5 and 1
// stop being exact, and arbitrary ones; addends on and off the grid of the
// sum's last bit, subnormal, negative and non-finite.
func TestAddRepeatedMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewPCG(40, 1))
	pick := func(xs ...float64) float64 { return xs[rng.IntN(len(xs))] }
	for i := 0; i < 20000; i++ {
		n := rng.IntN(3000)
		if rng.IntN(10) == 0 {
			n = rng.IntN(3)
		}
		pow := math.Ldexp(1, rng.IntN(120)-60)
		x := pick(0.5, 30, 25, 0.25, 0.0625, 1, 3, 1.0/3, 0.38, 0.1, 29.97, 0x1p-1074, 0x1p-1060, math.Nextafter(1, 0), 0x1.ffffffffffffdp-3,
			math.Ldexp(1+float64(rng.IntN(16))/16, rng.IntN(40)-20), rng.Float64(), 1e300, 0x1p1000, 0, math.Copysign(0, -1),
			-0.5, math.Inf(1), math.NaN())
		sum := pick(0, math.Copysign(0, -1), pow, pow-x, pow-x*float64(rng.IntN(n+1)), math.Nextafter(pow, 0),
			math.Nextafter(pow, 0)*0.75, 1<<52-x*float64(rng.IntN(n+1)), 1<<53-3, 1e4*rng.Float64(),
			math.Ldexp(rng.Float64(), rng.IntN(60)), math.MaxFloat64/2, 0x1p-1073, -3)
		want := sum
		for range n {
			want += x
		}
		if got := addRepeated(sum, x, n); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("case %d: addRepeated(%v, %v, %d) = %v (%#x), %d additions give %v (%#x)",
				i, sum, x, n, got, math.Float64bits(got), n, want, math.Float64bits(want))
		}
	}
}

// TestSecondEndMatchesScan holds secondEnd to a frame-by-frame scan of
// the predicate the per-frame loop splits seconds by, at camera rates that
// are whole, NTSC-like and arbitrary, from any frame of a second. A fifth
// of the cases pass a frame rate a few percent off, so the predicate must
// correct the first guess in both directions.
func TestSecondEndMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(40, 2))
	for i := 0; i < 20000; i++ {
		camera := []float64{10, 25, 29.97, 30, 59.94, 0.7, 1000 * rng.Float64(), 7 + rng.Float64()}[rng.IntN(8)]
		dt := 1 / camera
		k := rng.IntN(1 << 22)
		end := k + 1 + rng.IntN(int(3*camera)+2)
		s := int(float64(k) * dt)
		want := k + 1
		for want < end && int(float64(want)*dt) == s {
			want++
		}
		perSec := camera
		if rng.IntN(5) == 0 {
			perSec *= 0.95 + 0.1*rng.Float64()
		}
		if got := secondEnd(k, end, s, dt, perSec); got != want {
			t.Fatalf("case %d: secondEnd(%d, %d, %d, 1/%v) = %d, the scan stops at %d", i, k, end, s, camera, got, want)
		}
	}
}

// FuzzTickFramesMatchesTicks is TestTickFramesMatchesTicks' differential
// check with every load, preset and window drawn by the fuzzer; its seeds
// are under testdata/fuzz. A camera
// rate outside (0, 1000] fps, a non-finite window bound or a span that
// ends past the 2^31−1 seconds a tracker holds is skipped: Tick itself is
// not defined there.
func FuzzTickFramesMatchesTicks(f *testing.F) {
	f.Fuzz(func(t *testing.T, camera, maxFPS, trainFactor, encFactor, idle, trainLoad, encLoad float64,
		first uint32, n uint16, ticked uint8, credit, usageSum, trainUntil, encUntil float64) {
		if !(camera > 0 && camera <= 1000) || math.IsInf(trainUntil, 0) || math.IsInf(encUntil, 0) {
			t.Skip()
		}
		dt := 1 / camera
		cfg := DeviceConfig{maxFPS, trainFactor, encFactor, idle, trainLoad, encLoad}
		k0 := int(first % (1 << 20))
		if end := float64(k0+int(n)) * dt; !(end < math.MaxInt32) {
			t.Skip()
		}
		d := NewDevice(cfg)
		for k := max(k0-int(ticked), 0); k < k0; k++ {
			d.Tick(float64(k)*dt, dt)
		}
		d.credit, d.usageSum = credit, usageSum
		d.BeginTraining(trainUntil)
		d.BeginEncoding(encUntil)
		checkTickFrames(t, "fuzz", d, k0, int(n), dt)
	})
}

// checkScan plays frames from … to−1 through Scan on s, again from the
// frame after each stop, as a span does, and the same frames through the
// Sample loop each Scan stands for on a copy. It fails unless every Scan
// stops at the loop's frame with the loop's acceptance and leaves the
// credit, the previous time and the started flag with the loop's bits. It
// returns how many scans stopped before to.
func checkScan(t *testing.T, name string, s *Sampler, from, to int, dt, since, wait float64) (stops int) {
	t.Helper()
	want := *s
	for from < to || from == to && stops == 0 {
		stop, accepted := s.Scan(from, to, dt, since, wait)
		wantStop, wantAccepted := from, false
		for ; wantStop < to; wantStop++ {
			tm := float64(wantStop) * dt
			if wantAccepted = want.Sample(tm); wantAccepted || tm-since >= wait {
				break
			}
		}
		if stop != wantStop || accepted != wantAccepted {
			t.Fatalf("%s (rate %v, dt %v, frames %d…%d, since %v, wait %v): Scan stops at %d (accepted %t), the Sample loop at %d (accepted %t)",
				name, want.rate, dt, from, to-1, since, wait, stop, accepted, wantStop, wantAccepted)
		}
		if s.started != want.started || math.Float64bits(s.credit) != math.Float64bits(want.credit) ||
			math.Float64bits(s.lastT) != math.Float64bits(want.lastT) {
			t.Fatalf("%s (rate %v, dt %v, frames %d…%d, since %v, wait %v): Scan leaves %+v, the Sample loop %+v",
				name, want.rate, dt, from, to-1, since, wait, *s, want)
		}
		if stop >= to {
			break
		}
		stops++
		from = stop + 1
	}
	return stops
}

// TestScanMatchesSampleLoop is the oracle for the span's sampler half: Scan
// stops at the frame the Sample loop it stands for stops at — the first
// accepted one, or the first whose t−since reaches wait — with the same
// acceptance and the same credit, previous time and started flag, bit for
// bit. A case then scans on from the stop, as a span does, to the end of
// its frames.
//
// The first generator draws spans up to five minutes long anywhere in the
// first ten minutes of a stream. Rates run from 0 through R_min and
// dyadic rates below the camera FPS, to at and above it, where the
// credit cap binds; some samplers have not started, some read a previous
// time two frames back, some spans are empty, and wait is +Inf for a
// buffer that holds nothing. Most frames of a long span play in closed
// form, so a wrong credit, stop or crossing shows as a bit difference.
// Each sampler then scans a second span after a rate command, under
// another frame step, or from an earlier frame.
//
// The second aims at the closed form's edges: a 32 fps camera, whose
// frame times are exact, with rates that put an increment exactly half a
// credit ulp past a whole number; spans that cross a power of two of
// time; and waits that end on the first frame past such a crossing.
func TestScanMatchesSampleLoop(t *testing.T) {
	rng := rand.New(rand.NewPCG(39, 2))
	pick := func(xs ...float64) float64 { return xs[rng.IntN(len(xs))] }
	stops := 0
	for i := 0; i < 1500; i++ {
		camera := pick(10, 12, 15, 25, 29.97, 30)
		dt := 1 / camera
		dyadic := float64(1+rng.IntN(1<<12)) / (1 << 14)
		rate := pick(0, 0.05, 0.1, 0.5, 2, dyadic, camera*0.999, camera, camera*1.5, 4*camera, camera*rng.Float64())
		first := 2 + rng.IntN(int(600*camera))
		to := first + rng.IntN(int(300*camera))
		if rng.IntN(8) == 0 {
			to = first
		}
		s := NewSampler(rate)
		if rng.IntN(8) > 0 {
			s.started = true
			s.lastT = float64(first-1-rng.IntN(2)) * dt
			s.credit = pick(0, 0.3, 0.999999, 1, 1.5, 2, 2*rng.Float64())
		}
		since := float64(first-rng.IntN(int(10*camera))) * dt
		wait := pick(math.Inf(1), math.Inf(1), 0, 0.1, 5, 25, 100*rng.Float64())
		stops += checkScan(t, fmt.Sprintf("case %d", i), s, first, to, dt, since, wait)

		// The same sampler scans on under a new rate command, a new frame
		// step, or from an earlier frame: the grid it keeps between spans
		// must not outlive what it was built for.
		switch rng.IntN(4) {
		case 0:
			s.SetRate(pick(0.1, 0.5, camera*rng.Float64()))
		case 1:
			camera = pick(10, 25, 29.97, 30)
			dt = 1 / camera
		case 2:
			to = first
			first = max(2, first-rng.IntN(int(60*camera)))
		}
		if to < first+int(60*camera) {
			to = first + rng.IntN(int(120*camera))
		}
		checkScan(t, fmt.Sprintf("case %d, second span", i), s, first, to, dt, since, math.Inf(1))
	}
	if stops == 0 {
		t.Fatal("no generated span stopped early: the cases test nothing but whole spans")
	}

	for i := 0; i < 1500; i++ {
		camera := pick(32, 30, 29.97)
		dt := 1 / camera
		// A rate of b/2^j puts frame steps of whole ulps of time onto odd
		// multiples of a power of two, half a credit ulp in some binade.
		rate := float64(1|rng.IntN(1<<10)) / float64(int(1)<<(8+rng.IntN(8)))
		if rng.IntN(4) == 0 {
			rate = pick(0.1, 0.28125, 0.1*rng.Float64())
		}
		pow := 1 << (1 + rng.IntN(10)) // a power-of-two second
		cross := int(math.Ceil(float64(pow) * camera))
		first := max(2, cross-rng.IntN(int(120*camera)))
		to := cross + rng.IntN(int(120*camera))
		s := NewSampler(rate)
		s.started = true
		s.lastT = float64(first-1-rng.IntN(2)) * dt
		s.credit = pick(0, 0.5, 1-0x1p-53, rng.Float64())
		since := float64(first) * dt
		wait := pick(math.Inf(1), float64(cross)*dt-since, float64(cross+1)*dt-since, float64(pow)-since, 30*rng.Float64())
		stops += checkScan(t, fmt.Sprintf("edge case %d", i), s, first, to, dt, since, wait)
	}
}

// FuzzScanMatchesSampleLoop is TestScanMatchesSampleLoop's differential
// check with the rate, the sampler's state, the span and the wait drawn by
// the fuzzer; its seeds are under testdata/fuzz. A camera rate outside
// (0, 1000] fps is skipped: frames do not advance there.
func FuzzScanMatchesSampleLoop(f *testing.F) {
	f.Fuzz(func(t *testing.T, camera, rate, credit float64, first uint32, n uint16, back uint8,
		since, wait float64, started bool) {
		if !(camera > 0 && camera <= 1000) {
			t.Skip()
		}
		dt := 1 / camera
		k0 := int(first % (1 << 24))
		s := NewSampler(rate)
		if started {
			s.started = true
			s.credit = credit
			s.lastT = float64(k0-1-int(back%3)) * dt
		}
		checkScan(t, "fuzz", s, k0, k0+int(n), dt, since, wait)
	})
}
