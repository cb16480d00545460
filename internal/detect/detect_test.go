package detect

import (
	"math/rand/v2"
	"testing"

	"shoggoth/internal/metrics"
	"shoggoth/internal/video"
)

// pinnedProfile returns a DETRAC-like profile whose script stays in a single
// domain, for controlled evaluation.
func pinnedProfile(domain int) *video.Profile {
	p := video.DETRACProfile()
	p.Script = []video.Segment{{DomainIndex: domain, Duration: 3600}}
	p.TransitionSec = 0
	return p
}

// evalMAP runs the student over n frames of a pinned-domain stream.
func evalMAP(s *Student, p *video.Profile, seed uint64, n int) float64 {
	stream := video.NewStream(p, seed)
	col := metrics.NewCollector()
	for i := 0; i < n; i++ {
		f := stream.Next()
		col.AddFrame(f.Index, f.Time, frameGTs(f), toEvalDets(f, s.Detect(f)))
	}
	return col.MAP50()
}

func frameGTs(f *video.Frame) []metrics.GT {
	var out []metrics.GT
	for _, pr := range f.Proposals {
		if pr.GT != nil {
			out = append(out, metrics.GT{Frame: f.Index, Class: pr.GT.Class, Box: pr.GT.Box})
		}
	}
	return out
}

func toEvalDets(f *video.Frame, dets []Detection) []metrics.Det {
	out := make([]metrics.Det, len(dets))
	for i, d := range dets {
		out[i] = metrics.Det{Frame: f.Index, Class: d.Class, Confidence: d.Confidence, Box: d.Box}
	}
	return out
}

// labeledBatch collects teacher-labeled training data from n frames sampled
// at the given stride.
func labeledBatch(p *video.Profile, teacher *Teacher, seed uint64, frames, stride int) []LabeledRegion {
	stream := video.NewStream(p, seed)
	var batch []LabeledRegion
	for i := 0; i < frames; i++ {
		f := stream.Next()
		if i%stride != 0 {
			continue
		}
		batch = append(batch, BuildTrainingBatch(f, teacher.Label(f), p.BackgroundClass())...)
	}
	return batch
}

func TestStudentArchitectureShapes(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	s := NewStudent(32, 4, rng)
	if s.Backbone.Len() != idxPool {
		t.Fatalf("backbone length %d != pool index %d", s.Backbone.Len(), idxPool)
	}
	if s.Backbone.OutDim(32, s.Backbone.Len()) != 32 {
		t.Fatalf("trunk output dim: %d", s.Backbone.OutDim(32, s.Backbone.Len()))
	}
	if got := s.Backbone.OutDim(32, idxConv54); got != 48 {
		t.Fatalf("conv5_4 activation dim: %d", got)
	}
}

func TestPlacementIndices(t *testing.T) {
	if PlacementPool.Index() != idxPool || PlacementConv54.Index() != idxConv54 || PlacementInput.Index() != idxInput {
		t.Fatal("placement indices wrong")
	}
	if PlacementPool.String() != "pool" || PlacementInput.String() != "input" || PlacementConv54.String() != "conv5_4" {
		t.Fatal("placement names wrong")
	}
}

func TestDetectEmptyFrame(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	s := NewStudent(32, 4, rng)
	f := &video.Frame{}
	if got := s.Detect(f); got != nil {
		t.Fatalf("empty frame should produce no detections, got %v", got)
	}
	if got := s.Confidences(f); got != nil {
		t.Fatal("empty frame should produce no confidences")
	}
}

func TestTeacherLabelsAreMostlyCorrect(t *testing.T) {
	p := pinnedProfile(0)
	rng := rand.New(rand.NewPCG(3, 3))
	teacher := NewTeacher(p, rng)
	stream := video.NewStream(p, 3)
	correct, wrong, missed, total := 0, 0, 0, 0
	for i := 0; i < 200; i++ {
		f := stream.Next()
		labels := teacher.Label(f)
		for _, l := range labels {
			pr := f.Proposals[l.ProposalIdx]
			if pr.GT == nil {
				continue
			}
			total++
			switch {
			case l.Class == pr.GT.Class:
				correct++
			case l.Class == p.BackgroundClass():
				missed++
			default:
				wrong++
			}
		}
	}
	if total == 0 {
		t.Fatal("no labels")
	}
	accept := float64(correct) / float64(total)
	wantMin := (1 - p.TeacherMissRate) * p.TeacherClassAcc * 0.9
	if accept < wantMin {
		t.Fatalf("teacher accuracy %v below expected %v (correct=%d wrong=%d missed=%d)", accept, wantMin, correct, wrong, missed)
	}
}

func TestTeacherDetectionsExcludeBackground(t *testing.T) {
	p := pinnedProfile(0)
	rng := rand.New(rand.NewPCG(4, 4))
	teacher := NewTeacher(p, rng)
	f := video.NewStream(p, 4).Next()
	labels := teacher.Label(f)
	dets := teacher.Detections(labels)
	for _, d := range dets {
		if d.Class == p.BackgroundClass() {
			t.Fatal("teacher detections must not contain background")
		}
		if d.Confidence <= 0 {
			t.Fatal("teacher detection confidence must be positive")
		}
	}
}

func TestTeacherMAPCeiling(t *testing.T) {
	// Cloud-Only accuracy: the teacher's own detections evaluated as mAP
	// should sit in a plausible golden-model band (well above an unadapted
	// student, below perfect).
	p := pinnedProfile(0)
	rng := rand.New(rand.NewPCG(5, 5))
	teacher := NewTeacher(p, rng)
	stream := video.NewStream(p, 5)
	col := metrics.NewCollector()
	for i := 0; i < 300; i++ {
		f := stream.Next()
		dets := teacher.Detections(teacher.Label(f))
		col.AddFrame(f.Index, f.Time, frameGTs(f), toEvalDets(f, dets))
	}
	m := col.MAP50()
	if m < 0.4 || m > 0.95 {
		t.Fatalf("teacher mAP ceiling out of band: %v", m)
	}
}

func TestPretrainedStudentGoodAtHomePoorAtNight(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	p := video.DETRACProfile()
	student := NewPretrainedStudent(p, rng)

	home := evalMAP(student, pinnedProfile(0), 10, 200)
	night := evalMAP(student, pinnedProfile(3), 10, 200)
	if home < 0.25 {
		t.Fatalf("pretrained student too weak at home: mAP=%v", home)
	}
	if night > home-0.1 {
		t.Fatalf("data drift should hurt: home=%v night=%v", home, night)
	}
}

func TestAdaptationImprovesDriftedDomain(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	p := video.DETRACProfile()
	student := NewPretrainedStudent(p, rng)
	nightP := pinnedProfile(3)
	before := evalMAP(student, nightP, 11, 200)

	teacher := NewTeacher(nightP, rng)
	trainer := NewTrainer(student, DefaultTrainerConfig(), rng)
	// Two sessions of ~300 labeled regions from night frames.
	for sess := 0; sess < 2; sess++ {
		batch := labeledBatch(nightP, teacher, uint64(20+sess), 900, 30)
		trainer.RunSession(batch)
	}
	after := evalMAP(student, nightP, 11, 200)
	if after < before+0.08 {
		t.Fatalf("adaptation should improve night mAP: before=%v after=%v", before, after)
	}
}

func TestReplayPreventsCatastrophicForgetting(t *testing.T) {
	p := video.DETRACProfile()
	homeP, nightP := pinnedProfile(0), pinnedProfile(3)

	run := func(noReplay bool, seed uint64) (homeBefore, homeAfter float64) {
		rng := rand.New(rand.NewPCG(seed, seed))
		student := NewPretrainedStudent(p, rng)
		homeBefore = evalMAP(student, homeP, 12, 150)
		cfg := DefaultTrainerConfig()
		cfg.NoReplay = noReplay
		trainer := NewTrainer(student, cfg, rng)
		// Seed the memory with home-domain batches first (the deployment
		// starts at home), then adapt hard to night.
		homeTeacher := NewTeacher(homeP, rng)
		trainer.RunSession(labeledBatch(homeP, homeTeacher, 30, 900, 30))
		trainer.RunSession(labeledBatch(homeP, homeTeacher, 31, 900, 30))
		nightTeacher := NewTeacher(nightP, rng)
		for sess := 0; sess < 3; sess++ {
			trainer.RunSession(labeledBatch(nightP, nightTeacher, uint64(40+sess), 900, 30))
		}
		homeAfter = evalMAP(student, homeP, 12, 150)
		return
	}

	_, withReplayAfter := run(false, 101)
	_, noReplayAfter := run(true, 101)
	if withReplayAfter < noReplayAfter+0.02 {
		t.Fatalf("replay should retain home-domain accuracy better: with=%v without=%v",
			withReplayAfter, noReplayAfter)
	}
}

func TestTrainerFreezesFrontAfterFirstSession(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	p := video.DETRACProfile()
	student := NewPretrainedStudent(p, rng)
	trainer := NewTrainer(student, DefaultTrainerConfig(), rng)
	teacher := NewTeacher(p, rng)

	batch := labeledBatch(p, teacher, 50, 600, 30)
	st0 := trainer.RunSession(batch)
	if !st0.FrontTrained {
		t.Fatal("first session must train the front layers")
	}
	// Snapshot front weights, run another session, verify they froze.
	w := student.Backbone.ParamsRange(0, PlacementPool.Index())[0]
	before := w.Value.Clone()
	st1 := trainer.RunSession(labeledBatch(p, teacher, 51, 600, 30))
	if st1.FrontTrained {
		t.Fatal("second session must not train the front layers")
	}
	if !w.Value.Equal(before, 0) {
		t.Fatal("front weights changed after freeze")
	}
}

func TestCompletelyFrozenNeverTrainsFront(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	p := video.DETRACProfile()
	student := NewPretrainedStudent(p, rng)
	cfg := DefaultTrainerConfig()
	cfg.CompletelyFrozen = true
	trainer := NewTrainer(student, cfg, rng)
	teacher := NewTeacher(p, rng)
	w := student.Backbone.ParamsRange(0, PlacementPool.Index())[0]
	before := w.Value.Clone()
	stats := trainer.RunSession(labeledBatch(p, teacher, 52, 600, 30))
	if stats.FrontTrained {
		t.Fatal("completely frozen must not train front")
	}
	if !w.Value.Equal(before, 0) {
		t.Fatal("front weights changed despite complete freeze")
	}
}

func TestTrainerMemoryFillsAndCaps(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 10))
	p := video.DETRACProfile()
	student := NewPretrainedStudent(p, rng)
	cfg := DefaultTrainerConfig()
	cfg.ReplayCapacity = 500
	trainer := NewTrainer(student, cfg, rng)
	teacher := NewTeacher(p, rng)
	for sess := 0; sess < 4; sess++ {
		trainer.RunSession(labeledBatch(p, teacher, uint64(60+sess), 600, 30))
		if trainer.Memory.Len() > 500 {
			t.Fatalf("memory exceeded capacity: %d", trainer.Memory.Len())
		}
	}
	if trainer.Memory.Len() != 500 {
		t.Fatalf("memory should be full, got %d", trainer.Memory.Len())
	}
	// Stored activations must match the tail input dimension.
	wantDim := student.Backbone.OutDim(student.FeatureDim, PlacementPool.Index())
	for _, smp := range trainer.Memory.Samples()[:5] {
		if len(smp.Activation) != wantDim {
			t.Fatalf("stored activation dim %d != %d", len(smp.Activation), wantDim)
		}
	}
}

func TestNoReplayConfigNormalisation(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 11))
	s := NewStudent(32, 4, rng)
	cfg := DefaultTrainerConfig()
	cfg.NoReplay = true
	tr := NewTrainer(s, cfg, rng)
	if tr.Memory.Cap() != 0 {
		t.Fatal("NoReplay must zero the replay capacity")
	}
	if tr.Config.Placement != PlacementInput {
		t.Fatal("NoReplay must train the full network")
	}
}

func TestTrainerEmptyBatch(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 12))
	s := NewStudent(32, 4, rng)
	tr := NewTrainer(s, DefaultTrainerConfig(), rng)
	stats := tr.RunSession(nil)
	if stats.Steps != 0 {
		t.Fatal("empty batch must not step")
	}
	if tr.Sessions() != 1 {
		t.Fatal("session counter should still advance")
	}
}

// TestStudentCloneAndWeightsRoundTrip: a clone, and a differently
// initialised student that received the weights through CopyWeightsFrom
// (how the AMS baseline ships a cloud-trained model to the edge), both
// detect exactly what the original does.
func TestStudentCloneAndWeightsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 13))
	p := video.DETRACProfile()
	s := NewStudent(p.FeatureDim(), p.NumClasses(), rng)
	f := video.NewStream(p, 13).Next()
	want := s.Detect(f)

	other := NewStudent(p.FeatureDim(), p.NumClasses(), rand.New(rand.NewPCG(99, 99)))
	other.CopyWeightsFrom(s)
	for name, got := range map[string][]Detection{"clone": s.Clone().Detect(f), "copied-into student": other.Detect(f)} {
		if len(got) != len(want) {
			t.Fatalf("%s differs: %d vs %d detections", name, len(got), len(want))
		}
		for i := range want {
			if got[i].Class != want[i].Class || got[i].ProposalIdx != want[i].ProposalIdx {
				t.Fatalf("%s detects differently at %d", name, i)
			}
		}
	}
}

func TestBuildTrainingBatch(t *testing.T) {
	p := video.DETRACProfile()
	rng := rand.New(rand.NewPCG(14, 14))
	teacher := NewTeacher(p, rng)
	f := video.NewStream(p, 14).Next()
	labels := teacher.Label(f)
	batch := BuildTrainingBatch(f, labels, p.BackgroundClass())
	if len(batch) != len(labels) {
		t.Fatalf("batch size %d != labels %d", len(batch), len(labels))
	}
	for i, r := range batch {
		if r.Class != labels[i].Class {
			t.Fatal("class mismatch")
		}
		if r.Class == p.BackgroundClass() && r.HasBox {
			t.Fatal("background sample must not have a box target")
		}
		if r.Class != p.BackgroundClass() && !r.HasBox {
			t.Fatal("positive sample must have a box target")
		}
	}
}
