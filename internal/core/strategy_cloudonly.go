package core

import (
	"math"

	"shoggoth/internal/video"
)

// cloudOnlyStrategy uploads the full stream, lets the golden teacher
// annotate it, and streams results back: maximum accuracy, maximum
// bandwidth, with inference throughput bounded by the synchronous
// round-trip pipeline.
type cloudOnlyStrategy struct {
	BaseStrategy
	lastRoundTrip float64
	cloudFreeAt   float64
}

func (st *cloudOnlyStrategy) Init(sys *System) error {
	st.Sys = sys
	st.lastRoundTrip = 0.2 // pipeline warm-up estimate before the first echo
	return nil
}

func (st *cloudOnlyStrategy) OnFrame(f *video.Frame, t, dt float64) {
	sys := st.Sys
	cfg := sys.Config()
	up := cfg.Codec.StreamFrameBytes(f.Complexity, f.Motion)
	down := cfg.Codec.AnnotatedFrameBytes(f.Complexity, f.Motion)
	sys.Usage().AddUp(up)
	sys.Usage().AddDown(down)

	if t >= st.cloudFreeAt {
		upSec := cfg.UplinkTransfer(up, t)
		rt := upSec +
			cfg.Labeler.TeacherLatencySec +
			cfg.DownlinkTransfer(down, t+upSec+cfg.Labeler.TeacherLatencySec)
		st.cloudFreeAt = t + rt
		st.lastRoundTrip = rt
		teacher := sys.Teacher()
		sys.RecordProcessedFrame(f, teacher.Detections(teacher.Label(f)))
	}
	effFPS := math.Min(cfg.Profile.FPS, 1/st.lastRoundTrip)
	sys.Device().FPS().Record(t, effFPS)
}
