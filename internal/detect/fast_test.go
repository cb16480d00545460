package detect

import (
	"math"
	"math/rand/v2"
	"testing"

	"shoggoth/internal/nn"
	"shoggoth/internal/tensor"
	"shoggoth/internal/video"
)

// fastTrainRun trains a fresh student for a few sessions on identical data
// and returns the last session's stats.
func fastTrainRun(t *testing.T, compute nn.Compute) SessionStats {
	t.Helper()
	p := video.DETRACProfile()
	s := NewStudent(p.FeatureDim(), p.NumClasses(), rand.New(rand.NewPCG(61, 62)))
	cfg := DefaultTrainerConfig()
	cfg.Epochs = 2
	cfg.Compute = compute
	tr := NewTrainer(s, cfg, rand.New(rand.NewPCG(63, 64)))
	dataRng := rand.New(rand.NewPCG(65, 66))
	var stats SessionStats
	for i := 0; i < 3; i++ {
		stats = tr.RunSession(benchBatch(p, 96, dataRng))
	}
	return stats
}

// TestFastTrainerMatchesExactWithinTolerance bounds the fast tier's drift
// from the exact tier at the training-session level: the averaged losses of
// identical sessions must agree within 1e-9 relative (the fast tier differs
// only by summation order).
func TestFastTrainerMatchesExactWithinTolerance(t *testing.T) {
	const tol = 1e-9
	exact := fastTrainRun(t, nn.Compute{})
	fast := fastTrainRun(t, nn.Compute{Fast: true, Lane: tensor.LaneF64})
	if fast.Steps != exact.Steps {
		t.Fatalf("step counts diverged: %d vs %d", fast.Steps, exact.Steps)
	}
	for _, pair := range []struct {
		name       string
		fast, want float64
	}{
		{"class loss", fast.AvgClassLoss, exact.AvgClassLoss},
		{"box loss", fast.AvgBoxLoss, exact.AvgBoxLoss},
	} {
		d := math.Abs(pair.fast - pair.want)
		if d > tol*math.Max(1, math.Abs(pair.want)) {
			t.Fatalf("%s drifted beyond %v: fast %v exact %v", pair.name, tol, pair.fast, pair.want)
		}
	}
}

// TestFastTrainerStepZeroAlloc extends the zero-allocation contract to the
// fast tier: a steady-state session on the fast kernels allocates nothing —
// transpose scratch, batch buffers and loss buffers are all pinned.
func TestFastTrainerStepZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 72))
	p := video.DETRACProfile()
	s := NewStudent(p.FeatureDim(), p.NumClasses(), rng)
	cfg := DefaultTrainerConfig()
	cfg.Epochs = 1
	cfg.ReplayCapacity = 0 // keep pool placement, drop the by-design memory-write allocations
	cfg.Compute = nn.Compute{Fast: true, Lane: tensor.LaneF64}
	tr := NewTrainer(s, cfg, rand.New(rand.NewPCG(73, 74)))
	batch := benchBatch(p, 64, rng)

	tr.RunSession(batch) // session 0 trains the front and sizes scratch
	tr.RunSession(batch) // first frozen-front session sizes the rest
	tr.RunSession(batch)

	if allocs := testing.AllocsPerRun(5, func() { tr.RunSession(batch) }); allocs != 0 {
		t.Fatalf("steady-state fast-tier session allocated %v times, want 0", allocs)
	}
}

// TestFastTeacherLabelAppendBitIdentical locks the batched-labeling
// foundation: labeling frames through a shared slab draws the teacher's RNG
// in exactly the per-frame order, so batch labels are bit-identical to
// frame-at-a-time labels.
func TestFastTeacherLabelAppendBitIdentical(t *testing.T) {
	p := video.DETRACProfile()
	mkFrames := func() []*video.Frame {
		stream := video.NewStream(p, 5)
		frames := make([]*video.Frame, 12)
		for i := range frames {
			frames[i] = stream.Next()
		}
		return frames
	}

	perFrame := NewTeacher(p, rand.New(rand.NewPCG(81, 82)))
	var want [][]TeacherLabel
	for _, f := range mkFrames() {
		want = append(want, perFrame.Label(f))
	}

	batched := NewTeacher(p, rand.New(rand.NewPCG(81, 82)))
	frames := mkFrames()
	total := 0
	for _, f := range frames {
		total += len(f.Proposals)
	}
	slab := make([]TeacherLabel, 0, total)
	var got [][]TeacherLabel
	for _, f := range frames {
		start := len(slab)
		slab = batched.LabelAppend(slab, f)
		got = append(got, slab[start:len(slab):len(slab)])
	}
	if len(slab) != total || cap(slab) != total {
		t.Fatalf("slab realloc: len %d cap %d want %d", len(slab), cap(slab), total)
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			t.Fatalf("frame %d: %d labels batched vs %d per-frame", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				t.Fatalf("frame %d label %d: batched %+v != per-frame %+v", i, j, got[i][j], want[i][j])
			}
		}
	}
}
