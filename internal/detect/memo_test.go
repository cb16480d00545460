package detect

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"shoggoth/internal/nn"
	"shoggoth/internal/video"
)

// memoStudent returns a fresh student and two consecutive frames of its
// profile's stream.
func memoStudent(t *testing.T) (*Student, *video.Frame, *video.Frame) {
	t.Helper()
	p := video.DETRACProfile()
	s := NewStudent(p.FeatureDim(), p.NumClasses(), rand.New(rand.NewPCG(61, 62)))
	stream := video.NewStream(p, 61)
	return s, stream.Next(), stream.Next()
}

// TestStudentVersion: a new student has a version, a clone shares it, and
// everything that can write weights or running statistics issues a fresh
// one: CopyWeightsFrom, Params and a non-empty training session.
func TestStudentVersion(t *testing.T) {
	s, _, _ := memoStudent(t)
	if s.version == 0 {
		t.Fatal("a new student has no version")
	}
	if c := s.Clone(); c.version != s.version {
		t.Fatalf("clone version %d, source %d", c.version, s.version)
	}

	renews := map[string]func(s *Student){
		"CopyWeightsFrom": func(s *Student) { s.CopyWeightsFrom(s.Clone()) },
		"Params":          func(s *Student) { s.Params() },
		"RunSession": func(s *Student) {
			cfg := DefaultTrainerConfig()
			cfg.Epochs = 1
			tr := NewTrainer(s, cfg, rand.New(rand.NewPCG(63, 64)))
			tr.RunSession(benchBatch(video.DETRACProfile(), 32, rand.New(rand.NewPCG(65, 66))))
		},
	}
	for name, write := range renews {
		c := s.Clone()
		write(c)
		if c.version == s.version || c.version == 0 {
			t.Errorf("%s left the version at %d (source %d)", name, c.version, s.version)
		}
	}

	c := s.Clone()
	NewTrainer(c, DefaultTrainerConfig(), rand.New(rand.NewPCG(67, 68))).RunSession(nil)
	if c.version != s.version {
		t.Errorf("an empty training session changed the version %d → %d", s.version, c.version)
	}
}

// TestInferMemoSharesOnlyIdenticalModels: the memo answers a clone on the
// frame its source inferred, with the source's very result, and never
// across another frame, weights version, compute tier or MinConfidence, nor
// for a student without a version, nor after Reset. Every answer equals
// the student's own Infer.
func TestInferMemoSharesOnlyIdenticalModels(t *testing.T) {
	s, f, next := memoStudent(t)
	cases := []struct {
		name  string
		frame *video.Frame
		model func() *Student
		share bool
	}{
		{"source again", f, func() *Student { return s }, true},
		{"clone", f, s.Clone, true},
		{"next frame", next, s.Clone, false},
		{"renewed weights", f, func() *Student { c := s.Clone(); c.Params(); return c }, false},
		{"fast tier", f, func() *Student { c := s.Clone(); c.SetCompute(nn.Compute{Fast: true}); return c }, false},
		{"min confidence", f, func() *Student { c := s.Clone(); c.MinConfidence = 0.9; return c }, false},
		{"no version", f, func() *Student { c := s.Clone(); c.version = 0; return c }, false},
	}
	for _, tc := range cases {
		var memo InferMemo
		first, shared := memo.Infer(s, f)
		if shared {
			t.Fatalf("%s: an empty memo answered", tc.name)
		}
		st := tc.model()
		got, shared := memo.Infer(st, tc.frame)
		if shared != tc.share {
			t.Errorf("%s: shared=%v, want %v", tc.name, shared, tc.share)
		}
		if want := st.Infer(tc.frame); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the memo's answer differs from the student's own inference", tc.name)
		}
		if shared && &got.Confidences[0] != &first.Confidences[0] {
			t.Errorf("%s: a shared answer is not the kept result", tc.name)
		}
	}

	var memo InferMemo
	memo.Infer(s, f)
	memo.Reset()
	if _, shared := memo.Infer(s.Clone(), f); shared {
		t.Error("the memo answered after Reset")
	}
	if _, shared := (*InferMemo)(nil).Infer(s, f); shared {
		t.Error("a nil memo answered")
	}
}

// TestInferMemoHitZeroAlloc: a student served from the memo allocates
// nothing — the shared result is handed out as is.
func TestInferMemoHitZeroAlloc(t *testing.T) {
	s, f, _ := memoStudent(t)
	var memo InferMemo
	memo.Infer(s, f)
	c := s.Clone()
	if allocs := testing.AllocsPerRun(100, func() { memo.Infer(c, f) }); allocs != 0 {
		t.Fatalf("a memo hit allocated %v times, want 0", allocs)
	}
}
