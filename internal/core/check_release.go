//go:build !shoggothdebug

package core

import (
	"shoggoth/internal/detect"
	"shoggoth/internal/video"
)

// wakeCheck, checkSharedInfer and poisonFrames are compiled out in release
// builds. Build with -tags shoggothdebug to assert that no events-fidelity
// flush comes before the wake frame the device reported and that every
// inference a stream group shares matches the student's own, and to poison
// the frames of every released upload (see check_debug.go).
type wakeCheck struct{}

func (wakeCheck) predicted(*System) {}
func (wakeCheck) flushing(*System)  {}

func checkSharedInfer(*detect.Student, *video.Frame, detect.InferResult) {}

func poisonFrames([]video.Frame) {}
