package detect

import (
	"shoggoth/internal/nn"
	"shoggoth/internal/video"
)

// InferMemo shares one frame's inference among students that hold the same
// weights: Infer answers from an earlier result when the frame, the weights
// version, the compute tier and MinConfidence all match, and otherwise runs
// the student and keeps what it returned. The result is then Student.Infer's
// to the bit, because a forward pass in eval mode reads nothing else.
//
// A shared result's slices belong to every student it was handed to, so its
// callers only read them. The memo keeps each frame it saw until Reset; its
// owner resets it before the next frame. Not safe for concurrent use.
type InferMemo struct {
	entries []inferEntry // one per distinct model seen since Reset
}

type inferEntry struct {
	frame   *video.Frame
	version uint64
	compute nn.Compute
	minConf float64
	res     InferResult
}

// Infer returns s.Infer(f) and reports whether the result came from the
// memo. A nil memo, or a student without a version, always runs s.Infer.
//
//shoggoth:hotpath
func (m *InferMemo) Infer(s *Student, f *video.Frame) (InferResult, bool) {
	if m == nil || s.version == 0 {
		return s.Infer(f), false
	}
	for i := range m.entries {
		e := &m.entries[i]
		if e.frame == f && e.version == s.version && e.compute == s.compute && e.minConf == s.MinConfidence {
			return e.res, true
		}
	}
	res := s.Infer(f)
	//shoggoth:allow hotalloc -- grows to the number of distinct models in a stream group once; Reset keeps the capacity
	m.entries = append(m.entries, inferEntry{frame: f, version: s.version, compute: s.compute, minConf: s.MinConfidence, res: res})
	return res, false
}

// Reset forgets every result and the frames they came from.
func (m *InferMemo) Reset() {
	clear(m.entries)
	m.entries = m.entries[:0]
}
