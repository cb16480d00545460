package cloud

import (
	"math/rand/v2"
	"testing"

	"shoggoth/internal/detect"
	"shoggoth/internal/video"
)

// TestFastLabelBatchBitIdentical is the batched-teacher contract: labeling a
// run of frames in batches through LabelBatch produces label sets, φ values
// and service times bit-identical to labeling the same frames one at a time,
// including the φ chain that crosses batch boundaries.
func TestFastLabelBatchBitIdentical(t *testing.T) {
	p := video.DETRACProfile()
	mkFrames := func() []*video.Frame {
		stream := video.NewStream(p, 7)
		frames := make([]*video.Frame, 0, 12)
		for i := 0; len(frames) < 12; i++ {
			f := stream.Next()
			if i%10 == 0 {
				frames = append(frames, f)
			}
		}
		return frames
	}

	perFrame := NewLabeler(detect.NewTeacher(p, rand.New(rand.NewPCG(31, 32))), DefaultLabelerConfig())
	var want []LabelResult
	for _, f := range mkFrames() {
		want = append(want, perFrame.LabelFrame(f))
	}

	batched := NewLabeler(detect.NewTeacher(p, rand.New(rand.NewPCG(31, 32))), DefaultLabelerConfig())
	frames := mkFrames()
	var got []LabelResult
	// Uneven batch sizes so φ chains across batch boundaries.
	for _, n := range []int{5, 1, 6} {
		got = append(got, batched.LabelBatch(frames[:n])...)
		frames = frames[n:]
	}

	if len(got) != len(want) {
		t.Fatalf("result count: batched %d per-frame %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Phi != want[i].Phi || got[i].ServiceSec != want[i].ServiceSec {
			t.Fatalf("frame %d: batched φ=%v svc=%v, per-frame φ=%v svc=%v",
				i, got[i].Phi, got[i].ServiceSec, want[i].Phi, want[i].ServiceSec)
		}
		if len(got[i].Labels) != len(want[i].Labels) {
			t.Fatalf("frame %d: %d labels batched vs %d per-frame", i, len(got[i].Labels), len(want[i].Labels))
		}
		for j := range want[i].Labels {
			if got[i].Labels[j] != want[i].Labels[j] {
				t.Fatalf("frame %d label %d: batched %+v != per-frame %+v",
					i, j, got[i].Labels[j], want[i].Labels[j])
			}
		}
	}
}
