package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"shoggoth/internal/video"
)

// wakeCase is one generated device-local state an events-fidelity device can
// be in when AdvanceTo returns, and the stream position it is in it at.
type wakeCase struct {
	fps      float64
	upload   int     // UploadFrames
	wait     float64 // UploadMaxWaitSec
	rate     float64 // sampler rate from here on
	accrued  float64 // credit the last Sample call before the state was offered (0…2: the cap included)
	buffered int     // frames in the sample buffer, < upload
	age      float64 // share of wait the oldest buffered frame has already spent
	aligned  bool    // the oldest buffered frame was captured on a frame time, as fleetSpan's are
	fromEnd  int     // frames left in the stream, the next one included
}

// eventsSystem builds a private events-fidelity Shoggoth deployment.
func eventsSystem(t *testing.T, fps, duration float64, upload int, wait float64) *System {
	t.Helper()
	p := video.DETRACProfile()
	p.FPS = fps
	cfg := NewConfig(Shoggoth, p)
	cfg.DurationSec = duration
	cfg.Fidelity = FidelityEvents
	cfg.UploadFrames = upload
	cfg.UploadMaxWaitSec = wait
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// firstFlush puts a fresh deployment into the case's state, asks for the
// wake frame, then plays fleetSpan forward to the first flush. flush is -1
// when the stream ends without one.
func firstFlush(t *testing.T, c wakeCase) (next, wake, flush, last int) {
	t.Helper()
	const duration = 40
	s := eventsSystem(t, c.fps, duration, c.upload, c.wait)
	last = s.nFrames - 1
	next = s.nFrames - c.fromEnd
	at := func(k int) float64 { return float64(k) * s.dt }

	// Two Sample calls on the frames before next: the first starts the
	// sampler (credit 1 → 0), the second accrues c.accrued and accepts if
	// that reaches 1, leaving the credit the case asks for.
	s.sampler.Sample(at(next - 2))
	s.sampler.SetRate(c.accrued / s.dt)
	s.sampler.Sample(at(next - 1))
	s.sampler.SetRate(c.rate)
	s.frameIdx = next
	for i := 0; i < c.buffered; i++ {
		s.bufferMeta(next-1, at(next-1))
	}
	if c.buffered > 0 {
		// Still inside its wait on the last frame played, or it would have
		// flushed there.
		first := at(next-1) - c.age*math.Min(c.wait, at(next-1))
		if c.aligned {
			first = at(int(math.Ceil(first / s.dt)))
		}
		if first > at(next-1) || at(next-1)-first >= c.wait {
			first = at(next - 1)
		}
		s.buf.first = first
	}

	wake = s.predictWake()
	s.wakeFrame = wake    // arms the shoggothdebug assertion in flushBuffer
	s.fleetSpan(last + 1) // stops after the flushing frame
	if s.emitted {
		return next, wake, s.frameIdx - 1, last
	}
	return next, wake, -1, last
}

// TestWakeFrameNeverLate is the property the lazy wake rests on: from any
// device-local state, no frame before the predicted wake flushes an upload.
// Below the camera FPS, where the credit cap never binds, the bound is also
// tight: the flush comes within 4 frames of it.
func TestWakeFrameNeverLate(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 1))
	pick := func(xs ...float64) float64 { return xs[rng.IntN(len(xs))] }
	flushed, tightChecked, slept := 0, 0, 0
	for i := 0; i < 6000; i++ {
		c := wakeCase{
			fps:     pick(10, 25, 30),
			upload:  int(pick(1, 2, 20)),
			wait:    pick(0.1, 5, 25),
			accrued: pick(0, 0.3, 0.999999, 1, 1.5, 2, 2*rng.Float64()),
			age:     rng.Float64(),
			aligned: rng.IntN(4) > 0,
		}
		c.rate = pick(0, 0, 0.05, 0.5, 2, c.fps/3, c.fps*0.999, c.fps, c.fps*1.5, 4*c.fps, c.fps*rng.Float64())
		c.buffered = rng.IntN(c.upload)
		c.fromEnd = 1 + rng.IntN(int(40*c.fps)-2)
		if rng.IntN(4) == 0 {
			c.fromEnd = 1 + rng.IntN(5) // the last frames of the stream
		}
		next, wake, flush, last := firstFlush(t, c)
		if wake < next || wake > last {
			t.Fatalf("case %d %+v: wake frame %d outside [%d, %d]", i, c, wake, next, last)
		}
		if wake > next {
			slept++
		}
		if flush < 0 {
			continue
		}
		flushed++
		if flush < wake {
			t.Fatalf("case %d %+v: flushed on frame %d, before the predicted wake frame %d (next frame %d)", i, c, flush, wake, next)
		}
		if c.rate < c.fps {
			tightChecked++
			if flush-wake > 4 {
				t.Fatalf("case %d %+v: flushed on frame %d, %d frames after the predicted wake frame %d", i, c, flush, flush-wake, wake)
			}
		}
	}
	// The generator must reach what it claims to: flushes, sub-FPS flushes,
	// and states the device can actually sleep from.
	if flushed < 3000 || tightChecked < 1500 || slept < 2000 {
		t.Fatalf("generator too weak: %d flushed, %d checked for tightness, %d slept, of 6000", flushed, tightChecked, slept)
	}
}

// TestWakeFrameWithoutUploads: a device that can never flush — a strategy
// without uploads, or rate 0 on an empty buffer — sleeps to the last frame,
// and a sampler that has not started wakes at once.
func TestWakeFrameWithoutUploads(t *testing.T) {
	s := eventsSystem(t, 30, 40, 20, 25)
	if got := s.predictWake(); got != 0 {
		t.Fatalf("sampler not started: wake frame %d, want 0", got)
	}
	s.sampler.Sample(0)
	s.sampler.SetRate(0)
	s.frameIdx = 1
	if got, want := s.predictWake(), s.nFrames-1; got != want {
		t.Fatalf("rate 0, empty buffer: wake frame %d, want the last frame %d", got, want)
	}
	s.uploads = false
	s.sampler.SetRate(30)
	if got, want := s.predictWake(), s.nFrames-1; got != want {
		t.Fatalf("no uploads: wake frame %d, want the last frame %d", got, want)
	}
}

// TestWakeFrameSparesVisits counts what the engine would pay for one default
// events-fidelity Shoggoth device: driven to the end by NextEventTime and
// AdvanceTo alone, each call running only what is due at the reported time.
// A key that names the next camera frame needs nFrames calls; the wake frame
// must need fewer than a twentieth of that, every frame must still have run,
// and the count repeats exactly — a prediction that quietly degrades to
// "next frame" fails here without a timer.
func TestWakeFrameSparesVisits(t *testing.T) {
	p := video.DETRACProfile()
	cfg := NewConfig(Shoggoth, p)
	cfg.DurationSec = 288
	cfg.Fidelity = FidelityEvents
	drive := func() (calls int, r *Results) {
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for {
			at, ok := s.NextEventTime()
			if !ok || at >= cfg.DurationSec {
				break
			}
			s.AdvanceTo(math.Nextafter(at, math.Inf(1)))
			if calls++; calls > 2*s.nFrames {
				t.Fatalf("no progress after %d AdvanceTo calls (frame %d of %d)", calls, s.frameIdx, s.nFrames)
			}
		}
		return calls, s.Finish()
	}
	calls, r := drive()
	nFrames := int(cfg.DurationSec * p.FPS)
	if r.FramesTotal != nFrames {
		t.Fatalf("ran %d frames, want all %d", r.FramesTotal, nFrames)
	}
	if r.SampledFrames == 0 || r.CloudBatches == 0 {
		t.Fatalf("device did no cloud work (sampled %d, batches %d): the count proves nothing", r.SampledFrames, r.CloudBatches)
	}
	if calls >= nFrames/20 {
		t.Fatalf("%d AdvanceTo calls for %d frames, want fewer than %d", calls, nFrames, nFrames/20)
	}
	if again, _ := drive(); again != calls {
		t.Fatalf("AdvanceTo call count does not repeat: %d then %d", calls, again)
	}
	t.Logf("%d AdvanceTo calls for %d frames, %d sampled, %d batches", calls, nFrames, r.SampledFrames, r.CloudBatches)
}

// TestWakeCountsPendingQuietRates: a quiet rate command is in no engine key,
// so the wake frame must already allow for it. After a cut from the
// predicted 10 fps to 1 fps has run, a pending quiet command back to 10 fps
// still bounds the wake, and the upload it brings forward must not come
// before the wake frame.
func TestWakeCountsPendingQuietRates(t *testing.T) {
	s := eventsSystem(t, 30, 60, 20, 600) // the wait never bounds the wake
	s.sampler.SetRate(10)
	s.AdvanceTo(0.5) // starts the sampler and predicts at 10 fps
	s.postRate(1, 1)
	s.postRate(2, 10)
	if next, ok := s.sched.NextEagerTime(); ok {
		t.Fatalf("a rate command no higher than the predicted rate was posted eager, due at %v", next)
	}
	s.AdvanceTo(1.5) // runs the cut
	if s.sampler.Rate() != 1 || s.wakeRate() != 10 {
		t.Fatalf("after the cut: sampler at %v fps, wake predicted at %v fps; want 1 and 10", s.sampler.Rate(), s.wakeRate())
	}
	wake, up := s.wakeFrame, s.usage.UpBytes
	for s.usage.UpBytes == up && s.frameIdx < s.nFrames {
		s.AdvanceTo(s.cfg.DurationSec)
	}
	flush := s.frameIdx - 1 // AdvanceTo stops right after the flushing frame
	if s.usage.UpBytes == up || float64(flush)*s.dt > 4 {
		t.Fatalf("the first upload left on frame %d (%v s): the rise back to 10 fps did not bring it forward, so the case proves nothing",
			flush, float64(flush)*s.dt)
	}
	if flush < wake {
		t.Fatalf("flushed on frame %d, before the wake frame %d predicted after the cut", flush, wake)
	}
	if s.quietRates != 0 || s.quietRate != 0 {
		t.Fatalf("%d quiet rate commands (highest %v) still counted after both ran", s.quietRates, s.quietRate)
	}
}

// TestRateRiseIsEager: a rate command above the predicted rate is in the
// engine's key, so the device is woken when it lands.
func TestRateRiseIsEager(t *testing.T) {
	s := eventsSystem(t, 30, 60, 20, 600)
	s.sampler.SetRate(1)
	s.AdvanceTo(0.5)
	s.postRate(3, 2)
	if next, ok := s.NextEventTime(); !ok || next != 3 {
		t.Fatalf("NextEventTime = %v, %v after a rise due at 3; want 3, true", next, ok)
	}
	if s.quietRates != 0 {
		t.Fatalf("a rise counted as %d quiet rate commands", s.quietRates)
	}
}
