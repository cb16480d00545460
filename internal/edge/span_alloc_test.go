//go:build !shoggothdebug

package edge

import (
	"math"
	"slices"
	"testing"
)

// TestSpanStepAllocatesNothing holds the span methods that play the
// events-fidelity frame step a stretch of frames at a time — Sampler.Scan,
// then Device.TickFrames up to the frame it stopped at — to zero
// allocations, as TestDeviceFrameStepAllocatesNothing does for
// Tick+Sample: the first half of the run warms them up and the second half
// is counted as one run. The sampler accepts about one frame in 20 s and
// sets no upload deadline, a span holds at most a minute, and each
// accepted frame opens a 2 s encoding window: a span after an acceptance
// plays its first frames one at a time, and every span ends in a long idle
// tail played in closed form.
//
// Each encoding window starts a few runs of FPS telemetry, so the run list
// grows as the stream goes. That growth is the telemetry's, not the
// spans': the test plays the same stream once on a twin, reserves as many
// runs as the twin ended with, and then counts. A shoggothdebug build
// copies the device to replay each span, so this file is built without
// the tag only.
func TestSpanStepAllocatesNothing(t *testing.T) {
	const fps, seconds = 30, 600
	dt := 1.0 / fps
	play := func(d *Device, s *Sampler, frame *int, end int) {
		for *frame < end {
			stop, accepted := s.Scan(*frame, min(*frame+60*fps, end), dt, 0, math.Inf(1))
			played := min(stop+1, end)
			d.TickFrames(*frame, played-*frame, dt)
			if accepted {
				d.BeginEncoding(float64(stop)*dt + 2)
			}
			*frame = played
		}
	}
	twin, twinFrame := NewDevice(DefaultDeviceConfig()), 0
	play(twin, NewSampler(0.05), &twinFrame, fps*seconds)
	if runs := len(twin.fps.runs); runs < 2*seconds/20 || runs > seconds/2 {
		t.Fatalf("a %d s stream with an encoding window every ~20 s holds %d runs of telemetry, want a few per window", seconds, runs)
	}

	d, s, frame := NewDevice(DefaultDeviceConfig()), NewSampler(0.05), 0
	d.fps.runs = slices.Grow(d.fps.runs, len(twin.fps.runs))
	half := func() { play(d, s, &frame, min(frame+fps*seconds/2, fps*seconds)) }
	if allocs := testing.AllocsPerRun(1, half); allocs != 0 {
		t.Fatalf("Scan+TickFrames allocate %v times over %d frames, want 0", allocs, fps*seconds/2)
	}
	if frame != fps*seconds {
		t.Fatalf("played %d frames, want %d", frame, fps*seconds)
	}
	if diff := sameDevice(d, twin); diff != "" {
		t.Fatalf("the counted run and its twin leave different %s", diff)
	}
}

// TestIdleHourAllocatesNothing is the footprint guard's allocation half:
// an idle device played as in TestIdleDeviceHoldsOneRun allocates nothing
// in Tick and TickFrames over the second half hour, once AllocsPerRun has
// played the first as its warm-up.
func TestIdleHourAllocatesNothing(t *testing.T) {
	const seconds = 3600
	d, frame := NewDevice(DefaultDeviceConfig()), 0
	half := func() { playIdleMinutes(d, &frame, frame+idleFPS*seconds/2) }
	if allocs := testing.AllocsPerRun(1, half); allocs != 0 {
		t.Fatalf("the second idle half hour of Tick and TickFrames allocates %v times, want 0", allocs)
	}
	if frame != idleFPS*seconds {
		t.Fatalf("played %d frames, want %d", frame, idleFPS*seconds)
	}
}
