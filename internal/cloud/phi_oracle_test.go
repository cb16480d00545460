package cloud

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"shoggoth/internal/detect"
	"shoggoth/internal/geom"
	"shoggoth/internal/video"
)

// oracleLabeler is the φ chain as it was before the Labeler kept its own
// detection buffers: it holds on to the previous frame's label slice, fills a
// map of anchor boxes per frame and rebuilds both frames' detections on every
// call. finishFrame, labelChangeLoss and detections are the old bodies
// verbatim, but for the background class arriving as a field (the teacher's
// profile is private to detect).
type oracleLabeler struct {
	Config  LabelerConfig
	Teacher *detect.Teacher
	bg      int

	prevLabels []detect.TeacherLabel
	prevBoxes  map[int]geom.Box
	havePrev   bool
}

func (l *oracleLabeler) LabelFrame(f *video.Frame) LabelResult {
	return l.finishFrame(f, l.Teacher.Label(f))
}

func (l *oracleLabeler) finishFrame(f *video.Frame, labels []detect.TeacherLabel) LabelResult {
	res := LabelResult{Labels: labels, ServiceSec: l.Config.TeacherLatencySec}
	boxes := make(map[int]geom.Box, len(f.Proposals))
	for i, pr := range f.Proposals {
		boxes[i] = pr.Anchor
	}
	if l.havePrev {
		res.Phi = l.labelChangeLoss(l.prevLabels, l.prevBoxes, labels, boxes)
	}
	l.prevLabels = labels
	l.prevBoxes = boxes
	l.havePrev = true
	return res
}

func (l *oracleLabeler) labelChangeLoss(aLabels []detect.TeacherLabel, aBoxes map[int]geom.Box,
	bLabels []detect.TeacherLabel, bBoxes map[int]geom.Box) float64 {

	a := l.detections(aLabels)
	b := l.detections(bLabels)
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	usedB := make([]bool, len(b))
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

func (l *oracleLabeler) detections(labels []detect.TeacherLabel) []detect.Detection {
	bg := l.bg
	var out []detect.Detection
	for _, l := range labels {
		if l.Class == bg {
			continue
		}
		out = append(out, detect.Detection{
			ProposalIdx: l.ProposalIdx,
			Class:       l.Class,
			Confidence:  l.Confidence,
			Box:         l.Box,
		})
	}
	return out
}

func sameResult(a, b LabelResult) bool {
	return math.Float64bits(a.Phi) == math.Float64bits(b.Phi) &&
		math.Float64bits(a.ServiceSec) == math.Float64bits(b.ServiceSec) &&
		reflect.DeepEqual(a.Labels, b.Labels)
}

// TestPhiChainMatchesOracle: 500 sampled frames — some emptied, some
// stripped to their distractors so that every label is background, runs of
// both — through two labelers on one teacher, as a device routed to a second
// replica and back is, give the φ, labels and service time of the map-based
// chain bit for bit.
func TestPhiChainMatchesOracle(t *testing.T) {
	p := video.DETRACProfile()
	newTeacher := func() *detect.Teacher { return detect.NewTeacher(p, rand.New(rand.NewPCG(17, 18))) }
	gt, wt := newTeacher(), newTeacher()
	got := [2]*Labeler{NewLabeler(gt, DefaultLabelerConfig()), NewLabeler(gt, DefaultLabelerConfig())}
	want := [2]*oracleLabeler{
		{Config: DefaultLabelerConfig(), Teacher: wt, bg: p.BackgroundClass()},
		{Config: DefaultLabelerConfig(), Teacher: wt, bg: p.BackgroundClass()},
	}

	stream := video.NewStream(p, 4)
	var nonzero, empties, backgrounds int
	for i := 0; i < 500; i++ {
		var f *video.Frame
		for s := 0; s < 5; s++ {
			f = stream.Next()
		}
		switch {
		case i%17 == 0 || i%17 == 1: // two empty frames running
			f = &video.Frame{Index: f.Index, Time: f.Time, Domain: f.Domain, DomainID: f.DomainID}
			empties++
		case i%23 == 0 || i%23 == 1: // distractors only
			g := *f
			g.Proposals = nil
			for _, pr := range f.Proposals {
				if pr.GT == nil {
					g.Proposals = append(g.Proposals, pr)
				}
			}
			f = &g
		}
		replica := 0
		if i >= 200 && i < 350 {
			replica = 1
		}
		g, w := got[replica].LabelFrame(f), want[replica].LabelFrame(f)
		if !sameResult(g, w) {
			t.Fatalf("frame %d on replica %d: φ %v svc %v labels %v, oracle φ %v svc %v labels %v",
				i, replica, g.Phi, g.ServiceSec, g.Labels, w.Phi, w.ServiceSec, w.Labels)
		}
		if g.Phi != 0 {
			nonzero++
		}
		if len(f.Proposals) > 0 && len(gt.Detections(g.Labels)) == 0 {
			backgrounds++
		}
	}
	if nonzero < 400 || empties < 50 || backgrounds < 20 {
		t.Fatalf("the run exercised too little: %d non-zero φ, %d empty frames, %d all-background frames", nonzero, empties, backgrounds)
	}
}

// TestPhiChainZeroAlloc: once its buffers have seen the busiest frame, the φ
// chain allocates nothing — no map, no detection slices, no matching scratch.
func TestPhiChainZeroAlloc(t *testing.T) {
	p := video.DETRACProfile()
	teacher := detect.NewTeacher(p, rand.New(rand.NewPCG(1, 2)))
	l := NewLabeler(teacher, DefaultLabelerConfig())
	var sets [][]detect.TeacherLabel
	for _, f := range serviceFrames(t, 8) {
		sets = append(sets, teacher.Label(f))
	}
	for _, set := range sets {
		l.finishFrame(set)
	}
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		l.finishFrame(sets[i%len(sets)])
		i++
	}); n != 0 {
		t.Fatalf("finishFrame allocates %v times a frame in steady state, want 0", n)
	}
}

// cloneFrames deep-copies frames onto memory of their own, as a decoded
// request's are.
func cloneFrames(frames []*video.Frame) []*video.Frame {
	out := make([]*video.Frame, len(frames))
	for i, f := range frames {
		g := *f
		g.Proposals = make([]video.Proposal, len(f.Proposals))
		for j, pr := range f.Proposals {
			pr.Features = append([]float64(nil), pr.Features...)
			if pr.GT != nil {
				gt := *pr.GT
				pr.GT = &gt
			}
			g.Proposals[j] = pr
		}
		out[i] = &g
	}
	return out
}

// TestLabelFramesRetainsNoFrame: once LabelFrames has returned, the caller
// may do what it likes with the frames it passed and the labels it got.
// Scribbling over both after every batch leaves the next batch's φ and
// labels exactly those of a run that scribbled over nothing.
func TestLabelFramesRetainsNoFrame(t *testing.T) {
	all := serviceFrames(t, 24)
	run := func(scribble bool) (labels [][]detect.TeacherLabel, phis []float64) {
		d := onReplica(newTierDevice(t, oneReplica(ServiceConfig{}), "d", 5, DeviceOptions{}))
		for at := 0; at < len(all); at += 6 {
			batch := cloneFrames(all[at : at+6])
			l, p, _ := d.LabelFrames(batch)
			for _, set := range l {
				labels = append(labels, append([]detect.TeacherLabel(nil), set...))
			}
			phis = append(phis, p...)
			if !scribble {
				continue
			}
			for _, f := range batch {
				for j := range f.Proposals {
					pr := &f.Proposals[j]
					for k := range pr.Features {
						pr.Features[k] = math.NaN()
					}
					if pr.GT != nil {
						*pr.GT = video.GT{TrackID: -1, Class: 99, Box: geom.Box{X1: 9, Y1: 9, X2: 10, Y2: 10}}
					}
					*pr = video.Proposal{TrackID: -7}
				}
				*f = video.Frame{Time: -1}
			}
			for _, set := range l {
				for j := range set {
					set[j] = detect.TeacherLabel{Class: 0, Box: geom.Box{X2: 1, Y2: 1}, Confidence: 1}
				}
			}
		}
		return labels, phis
	}
	wantLabels, wantPhis := run(false)
	gotLabels, gotPhis := run(true)
	if !reflect.DeepEqual(gotLabels, wantLabels) {
		t.Fatal("labels changed when the caller reused its frames and label slices")
	}
	for i := range wantPhis {
		if math.Float64bits(gotPhis[i]) != math.Float64bits(wantPhis[i]) {
			t.Fatalf("φ[%d] = %v after the caller reused its frames and label slices, want %v", i, gotPhis[i], wantPhis[i])
		}
	}
}
