package edge

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// cloneDevice copies a device and its FPS telemetry, capacity included, so
// a sized tracker stays sized and a growing one grows.
func cloneDevice(d *Device) *Device {
	c := *d
	c.fps = &FPSTracker{
		sums:   append(make([]float64, 0, cap(d.fps.sums)), d.fps.sums...),
		counts: append(make([]int32, 0, cap(d.fps.counts)), d.fps.counts...),
	}
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
	case !slices.EqualFunc(a.fps.sums, b.fps.sums, func(x, y float64) bool { return bits(x) == bits(y) }):
		return "FPS sums"
	case !slices.Equal(a.fps.counts, b.fps.counts):
		return "FPS counts"
	case a.trainingUntil != b.trainingUntil || a.encodingUntil != b.encodingUntil:
		return "load windows"
	}
	return ""
}

// TestTickFramesMatchesTicks is the oracle for the span's device half:
// TickFrames(first, n, dt) leaves every accumulator, and the FPS sums and
// counts, where n calls of Tick leave them, bit for bit, and counts the
// frames those calls process. The generated states put training and
// encoding windows that start before and end inside the span, spans that
// cross second boundaries or stay inside one, sized and growing trackers
// that already hold part of the current second, effective rates below, at
// and above the camera FPS, and empty spans.
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
		var d *Device
		if rng.IntN(2) == 0 {
			d = NewSizedDevice(cfg, int(end)+1)
		} else {
			d = NewDevice(cfg)
		}
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

		want := cloneDevice(d)
		wantProcessed := 0
		for k := first; k < first+n; k++ {
			if want.Tick(float64(k)*dt, dt) {
				wantProcessed++
			}
		}
		processed := d.TickFrames(first, n, dt)
		if processed != wantProcessed {
			t.Fatalf("case %d (frames %d…%d at %v fps): TickFrames processed %d frames, Tick %d", i, first, first+n-1, camera, processed, wantProcessed)
		}
		if diff := sameDevice(d, want); diff != "" {
			t.Fatalf("case %d (frames %d…%d at %v fps): TickFrames and Tick leave different %s", i, first, first+n-1, camera, diff)
		}
	}
}

// TestScanMatchesSampleLoop is the oracle for the span's sampler half: Scan
// stops at the frame the Sample loop it stands for stops at — the first
// accepted one, or the first whose t−since reaches wait — with the same
// acceptance and the same credit, previous time and started flag, bit for
// bit. A case then scans on from the stop, as a span does, to the end of
// its frames. Rates run from 0 through below, at and above the camera FPS,
// where the credit cap binds; some samplers have not started, some spans
// are empty, and wait is +Inf for a buffer that holds nothing.
func TestScanMatchesSampleLoop(t *testing.T) {
	rng := rand.New(rand.NewPCG(39, 2))
	pick := func(xs ...float64) float64 { return xs[rng.IntN(len(xs))] }
	stops := 0
	for i := 0; i < 4000; i++ {
		camera := pick(10, 25, 29.97, 30)
		dt := 1 / camera
		rate := pick(0, 0.05, 0.5, 2, camera*0.999, camera, camera*1.5, 4*camera, camera*rng.Float64())
		first := 2 + rng.IntN(int(20*camera))
		to := first + rng.IntN(int(30*camera))
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
		wait := pick(math.Inf(1), math.Inf(1), 0, 0.1, 5, 25, 10*rng.Float64())

		want := *s
		for from := first; from < to || from == first; {
			stop, accepted := s.Scan(from, to, dt, since, wait)
			wantStop, wantAccepted := from, false
			for ; wantStop < to; wantStop++ {
				tm := float64(wantStop) * dt
				if wantAccepted = want.Sample(tm); wantAccepted || tm-since >= wait {
					break
				}
			}
			if stop != wantStop || accepted != wantAccepted {
				t.Fatalf("case %d (rate %v, frames %d…%d, since %v, wait %v): Scan stops at %d (accepted %t), the Sample loop at %d (accepted %t)",
					i, rate, from, to-1, since, wait, stop, accepted, wantStop, wantAccepted)
			}
			if s.started != want.started || math.Float64bits(s.credit) != math.Float64bits(want.credit) ||
				math.Float64bits(s.lastT) != math.Float64bits(want.lastT) {
				t.Fatalf("case %d (rate %v, frames %d…%d): Scan leaves %+v, the Sample loop %+v", i, rate, from, to-1, *s, want)
			}
			if stop < to {
				stops++
			}
			from = stop + 1
		}
	}
	if stops == 0 {
		t.Fatal("no generated span stopped early: the cases test nothing but whole spans")
	}
}
