package cloud

import (
	"slices"

	"shoggoth/internal/detect"
	"shoggoth/internal/geom"
	"shoggoth/internal/video"
)

// LabelerConfig models the cloud inference service. The JSON key is a
// device's registration on a live cloud (internal/rpc).
type LabelerConfig struct {
	// TeacherLatencySec is the golden model's per-frame inference time on
	// the V100-class server.
	TeacherLatencySec float64 `json:"teacher_latency_sec"`
}

// Validate rejects a latency the service cannot price: it must be finite
// and ≥ 0. The error names the field by its JSON key.
func (c LabelerConfig) Validate() error {
	return nonNegative("labeler", "teacher_latency_sec", c.TeacherLatencySec)
}

// DefaultLabelerConfig returns the calibrated V100-class latency.
func DefaultLabelerConfig() LabelerConfig {
	return LabelerConfig{TeacherLatencySec: 0.045}
}

// Labeler runs the teacher over uploaded frames, producing distillation
// labels and the φ change signal. One labeler serves one edge device's
// stream state: the previous labeled frame's detections, which φ compares
// the next frame's with. That state is the labeler's own copy — it keeps no
// frame and no label slice it was handed or handed out.
type Labeler struct {
	Config  LabelerConfig
	Teacher *detect.Teacher

	// prev holds the previous labeled frame's detections and cur is the
	// buffer the next frame's are built in; finishFrame swaps them. used is
	// labelChangeLoss's matching scratch. All three grow to the busiest
	// frame's detection count and are reused from then on.
	prev, cur []detect.Detection
	used      []bool
	havePrev  bool

	// Analytic φ-chain state (events-fidelity pricing): the previous labeled
	// frame's time and domain are all the continuity the drift model needs.
	anPrevTime   float64
	anPrevDomain int
	anHavePrev   bool
}

// NewLabeler creates a labeler around a teacher.
func NewLabeler(t *detect.Teacher, cfg LabelerConfig) *Labeler {
	return &Labeler{Config: cfg, Teacher: t}
}

// LabelResult is the outcome of labeling one frame.
type LabelResult struct {
	Labels []detect.TeacherLabel
	// Phi is the label-change loss of this frame versus the previously
	// labeled frame (0 for the first frame): the teacher-label drift signal
	// of §III-C.
	Phi float64
	// ServiceSec is the teacher inference time consumed.
	ServiceSec float64
}

// LabelFrame labels a frame and computes φ against the previous labeled
// frame of this device.
func (l *Labeler) LabelFrame(f *video.Frame) LabelResult {
	return l.finishFrame(l.Teacher.Label(f))
}

// LabelBatch labels a batch of frames through one shared label slab sized to
// the batch's total proposal count. Per-frame label content, RNG draw order
// and the φ chain are identical to calling LabelFrame once per frame in
// order — only the allocation pattern changes (one slab instead of one slice
// per frame), so batch results are bit-identical to the per-frame path. No
// service calls it: it measured no faster than LabelFrame, and stays only
// because the repo benchmark times it (ROADMAP 3g).
func (l *Labeler) LabelBatch(frames []*video.Frame) []LabelResult {
	total := 0
	for _, f := range frames {
		total += len(f.Proposals)
	}
	slab := make([]detect.TeacherLabel, 0, total)
	out := make([]LabelResult, len(frames))
	for i, f := range frames {
		start := len(slab)
		slab = l.Teacher.LabelAppend(slab, f)
		out[i] = l.finishFrame(slab[start:len(slab):len(slab)])
	}
	return out
}

// PhiAnalytic prices a labeling round without executing the teacher: no
// labels are produced, and each frame's φ comes from the teacher's
// deterministic drift model over the time elapsed since the previous
// labeled frame. The continuity contract matches the executed chain — the
// device's first labeled frame scores 0, and state rolls forward per frame
// in batch order — so an analytic device's φ stream has the same shape
// (first-frame zero, per-frame progression) as an executed one.
//
// The φs are appended to dst, frame by frame, and the extended slice is
// returned: a caller that passes its previous result back as dst[:0]
// labels without allocating.
func (l *Labeler) PhiAnalytic(dst []float64, frames []*video.Frame) []float64 {
	dst = slices.Grow(dst, len(frames))
	for _, f := range frames {
		phi := 0.0
		if l.anHavePrev {
			phi = l.Teacher.AnalyticPhi(f.Index, f.Time-l.anPrevTime, f.DomainID != l.anPrevDomain)
		}
		dst = append(dst, phi)
		l.anPrevTime = f.Time
		l.anPrevDomain = f.DomainID
		l.anHavePrev = true
	}
	return dst
}

// finishFrame computes φ for a freshly labeled frame and rolls the device's
// previous-frame state forward. Shared by the per-frame and batched paths so
// the φ chain cannot diverge between them.
func (l *Labeler) finishFrame(labels []detect.TeacherLabel) LabelResult {
	res := LabelResult{Labels: labels, ServiceSec: l.Config.TeacherLatencySec}
	l.cur = l.Teacher.AppendDetections(l.cur[:0], labels)
	if l.havePrev {
		if cap(l.used) < len(l.cur) {
			l.used = make([]bool, len(l.cur))
		}
		res.Phi = labelChangeLoss(l.prev, l.cur, l.used[:len(l.cur)])
	}
	l.prev, l.cur = l.cur, l.prev
	l.havePrev = true
	return res
}

// labelChangeLoss measures how much the teacher's labels changed between
// consecutive sampled frames: the same detection-style loss used for the
// task, with a = T(I_{k-1}) as ground truth and b = T(I_k) as prediction,
// both already reduced to their detections. Matched same-class detections
// contribute their localisation disagreement (1−IoU); unmatched detections
// on either side contribute 1 each. The result is normalised to [0, 1].
// Stationary scenes score near 0. usedB is scratch of len(b), in any state.
func labelChangeLoss(a, b []detect.Detection, usedB []bool) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	clear(usedB)
	var loss float64
	matched := 0
	for _, da := range a {
		bestIoU, bestJ := 0.0, -1
		for j, db := range b {
			if usedB[j] || db.Class != da.Class {
				continue
			}
			if iou := geom.IoU(da.Box, db.Box); iou > bestIoU {
				bestIoU, bestJ = iou, j
			}
		}
		if bestJ >= 0 && bestIoU > 0.1 {
			usedB[bestJ] = true
			matched++
			loss += 1 - bestIoU
		} else {
			loss += 1 // disappeared or changed class
		}
	}
	for j := range b {
		if !usedB[j] {
			loss += 1 // newly appeared
		}
	}
	denom := float64(len(a) + len(b) - matched)
	if denom <= 0 {
		return 0
	}
	return loss / denom
}
