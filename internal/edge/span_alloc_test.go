//go:build !shoggothdebug

package edge

import "testing"

// TestSpanStepAllocatesNothing holds the span methods that play the
// events-fidelity frame step a stretch of frames at a time — Sampler.Scan,
// then Device.TickFrames up to the frame it stopped at — to zero
// allocations on a device whose FPS telemetry was sized for the run, as
// TestDeviceFrameStepAllocatesNothing does for Tick+Sample: the first half
// of the run warms it up and the second half is counted as one run. A
// shoggothdebug build copies the device to replay each span, so this file
// is built without the tag only.
func TestSpanStepAllocatesNothing(t *testing.T) {
	const fps, seconds = 30, 100
	d := NewSizedDevice(DefaultDeviceConfig(), seconds)
	s := NewSampler(2)
	dt := 1.0 / fps
	frame := 0
	halfRun := func() {
		for end := frame + fps*seconds/2; frame < end; {
			stop, _ := s.Scan(frame, min(frame+97, end), dt, float64(frame)*dt, 5)
			played := min(stop+1, end)
			d.TickFrames(frame, played-frame, dt)
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
