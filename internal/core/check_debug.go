//go:build shoggothdebug

package core

import (
	"fmt"
	"math"

	"shoggoth/internal/detect"
	"shoggoth/internal/video"
)

// wakeCheck holds the wake bound to its promise: an events-fidelity device
// must not flush on a frame before the wake frame it last reported, unless
// an eager local event ran since — those are in the engine's key beside the
// wake, and may raise the rate the bound was derived from. A quiet event
// (a label deposit, a training session, a rate command that raises no
// rate) excuses nothing: it cannot move an upload. The release build
// compiles it away (check_release.go); CI runs the core tests and the
// events-fidelity cluster tests with -tags shoggothdebug.
type wakeCheck struct {
	eager int64 // eager local events executed when wakeFrame was derived
}

func (w *wakeCheck) predicted(s *System) { w.eager = eagerRun(s) }

func (w *wakeCheck) flushing(s *System) {
	if s.fleet && s.frameIdx < s.wakeFrame && eagerRun(s) == w.eager {
		panic(fmt.Sprintf("core: device %q flushes on frame %d, before its wake frame %d, with no eager local event in between",
			s.cfg.DeviceID, s.frameIdx, s.wakeFrame))
	}
}

// eagerRun returns the eager events the device's scheduler has executed.
func eagerRun(s *System) int64 { return s.sched.Executed() - s.sched.ExecutedQuiet() }

// poisonFrames marks the frames of an upload being released: a read of them
// after release then sees an impossible frame (index −1, time NaN, domain
// −1), which moves a run's bytes, so the determinism rows under this tag
// catch any reader that outlives the upload.
func poisonFrames(frames []video.Frame) {
	for i := range frames {
		f := &frames[i]
		f.Index, f.Time, f.DomainID = -1, math.NaN(), -1
	}
}

// checkSharedInfer holds a stream group's InferMemo to its promise: the
// result it handed this student is the one the student computes itself,
// bit for bit. CI runs the matrix's golden and fleet rows under the tag.
func checkSharedInfer(st *detect.Student, f *video.Frame, got detect.InferResult) {
	want := st.Infer(f)
	same := len(got.Detections) == len(want.Detections) && sameBits(got.Confidences, want.Confidences)
	for i := 0; same && i < len(want.Detections); i++ {
		g, w := got.Detections[i], want.Detections[i]
		same = g.ProposalIdx == w.ProposalIdx && g.Class == w.Class &&
			sameBits([]float64{g.Confidence, g.Box.X1, g.Box.Y1, g.Box.X2, g.Box.Y2},
				[]float64{w.Confidence, w.Box.X1, w.Box.Y1, w.Box.X2, w.Box.Y2})
	}
	if !same {
		panic(fmt.Sprintf("core: frame %d's shared inference differs from the student's own", f.Index))
	}
}

// sameBits reports whether a and b hold the same float64s, bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
