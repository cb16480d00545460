//go:build !shoggothdebug

package edge

import (
	"math"
	"testing"
)

// TestSpanStepAllocatesNothing holds the span methods that play the
// events-fidelity frame step a stretch of frames at a time — Sampler.Scan,
// then Device.TickFrames up to the frame it stopped at — to zero
// allocations on a device whose FPS telemetry was sized for the run, as
// TestDeviceFrameStepAllocatesNothing does for Tick+Sample: the first half
// of the run warms it up and the second half is counted as one run. The
// sampler accepts about one frame in 20 s and sets no upload deadline, a
// span holds at most a minute, and each accepted frame opens a 2 s
// encoding window: a span after an acceptance plays its first frames one
// at a time, and every span ends in a long idle tail played in closed
// form. A shoggothdebug build copies the device to replay each span, so
// this file is built without the tag only.
func TestSpanStepAllocatesNothing(t *testing.T) {
	const fps, seconds = 30, 600
	d := NewSizedDevice(DefaultDeviceConfig(), seconds)
	s := NewSampler(0.05)
	dt := 1.0 / fps
	frame := 0
	halfRun := func() {
		for end := frame + fps*seconds/2; frame < end; {
			stop, accepted := s.Scan(frame, min(frame+60*fps, end), dt, 0, math.Inf(1))
			played := min(stop+1, end)
			d.TickFrames(frame, played-frame, dt)
			if accepted {
				d.BeginEncoding(float64(stop)*dt + 2)
			}
			frame = played
		}
	}
	if allocs := testing.AllocsPerRun(1, halfRun); allocs != 0 {
		t.Fatalf("Scan+TickFrames allocate %v times over %d frames, want 0", allocs, fps*seconds/2)
	}
	if frame != fps*seconds {
		t.Fatalf("played %d frames, want %d", frame, fps*seconds)
	}
}
