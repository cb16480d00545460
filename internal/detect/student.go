// Package detect implements the object-detection models of the reproduction:
// the lightweight Student detector that runs on the edge (a real neural
// network trained with SGD — the stand-in for YOLOv4+ResNet18), the Teacher
// oracle that labels frames in the cloud (the stand-in for Mask R-CNN), the
// latent-replay Trainer implementing the paper's adaptive training (§III-B),
// and offline pretraining.
package detect

import (
	"math/rand/v2"

	"shoggoth/internal/geom"
	"shoggoth/internal/nn"
	"shoggoth/internal/tensor"
	"shoggoth/internal/video"
)

// Detection is one detector output on a frame.
type Detection struct {
	ProposalIdx int
	Class       int
	Confidence  float64
	Box         geom.Box
}

// ReplayPlacement selects where the replay layer sits (Table II ablation).
type ReplayPlacement int

// Replay layer placements. PlacementPool is the paper's default
// (penultimate layer); PlacementConv54 replays at the conv5_4-like interior
// layer; PlacementInput stores raw inputs.
const (
	PlacementPool ReplayPlacement = iota
	PlacementConv54
	PlacementInput
)

// String implements fmt.Stringer.
func (p ReplayPlacement) String() string {
	switch p {
	case PlacementPool:
		return "pool"
	case PlacementConv54:
		return "conv5_4"
	case PlacementInput:
		return "input"
	default:
		return "unknown"
	}
}

// Backbone layer indices of the replay attachment points. The backbone is
//
//	0:stem(Dense) 1:relu 2:brn | 3:conv5(Dense) 4:relu 5:brn | 6:pool(Dense) 7:relu
//
// mirroring front conv stages → conv5_x → pooled embedding of the paper's
// ResNet18 backbone.
const (
	idxInput  = 0
	idxConv54 = 3
	idxPool   = 8 // == backbone length: replay after the full trunk
)

// Index returns the backbone split index for the placement.
func (p ReplayPlacement) Index() int {
	switch p {
	case PlacementConv54:
		return idxConv54
	case PlacementInput:
		return idxInput
	default:
		return idxPool
	}
}

// Student is the lightweight edge detector: a shared trunk with a
// classification head (classes + background) and a box-regression head.
type Student struct {
	NumClasses int // foreground classes; background label == NumClasses
	FeatureDim int

	Backbone  *nn.Sequential
	ClassHead *nn.Sequential
	BoxHead   *nn.Sequential

	// MinConfidence is the output threshold for emitting a detection.
	MinConfidence float64

	// Inference scratch, sized on first use: the proposal feature matrix
	// and the per-proposal softmax buffer. Per-student (and therefore
	// per-session) state — Students are not safe for concurrent use.
	inferX     *tensor.Matrix
	inferProbs []float64
}

// NewStudent builds the student architecture for a profile-compatible
// feature dimension and class count, initialised from rng. Normalisation
// layers are Batch Renormalization, per the paper.
func NewStudent(featureDim, numClasses int, rng *rand.Rand) *Student {
	return NewStudentWithNorm(featureDim, numClasses, true, rng)
}

// NewStudentWithNorm builds a student with either BatchRenorm (the paper's
// choice for small-mini-batch adaptation) or plain BatchNorm (the BRN-vs-BN
// ablation baseline).
func NewStudentWithNorm(featureDim, numClasses int, useBRN bool, rng *rand.Rand) *Student {
	norm := func(name string, dim int) nn.Layer {
		if useBRN {
			return nn.NewBatchRenorm(name, dim)
		}
		return nn.NewBatchNorm(name, dim)
	}
	backbone := nn.NewSequential(
		nn.NewDense("stem", featureDim, 48, rng),
		nn.NewReLU("stem.relu"),
		norm("stem.brn", 48),
		nn.NewDense("conv5", 48, 48, rng),
		nn.NewReLU("conv5.relu"),
		norm("conv5.brn", 48),
		nn.NewDense("pool", 48, 32, rng),
		nn.NewReLU("pool.relu"),
	)
	return &Student{
		NumClasses:    numClasses,
		FeatureDim:    featureDim,
		Backbone:      backbone,
		ClassHead:     nn.NewSequential(nn.NewDense("cls", 32, numClasses+1, rng)),
		BoxHead:       nn.NewSequential(nn.NewDense("box", 32, 4, rng)),
		MinConfidence: 0.30,
	}
}

// BackgroundClass returns the label used for negatives.
func (s *Student) BackgroundClass() int { return s.NumClasses }

// featureMatrix stacks proposal features into the student's pinned batch
// buffer (grown on first use, reused across frames).
func (s *Student) featureMatrix(proposals []video.Proposal) *tensor.Matrix {
	s.inferX = tensor.Ensure(s.inferX, len(proposals), len(proposals[0].Features))
	for i, p := range proposals {
		copy(s.inferX.Row(i), p.Features)
	}
	return s.inferX
}

// InferResult bundles one frame's detections with the per-proposal top
// posterior (the confidence signal for the α estimate of §III-C).
type InferResult struct {
	Detections  []Detection
	Confidences []float64
}

// Infer runs real-time inference on a frame in a single forward pass: every
// proposal is classified and its box corrected by the regression head.
// Proposals classified as background or below MinConfidence produce no
// detection, but every proposal contributes a confidence.
//
//shoggoth:hotpath
func (s *Student) Infer(f *video.Frame) InferResult {
	if len(f.Proposals) == 0 {
		return InferResult{}
	}
	x := s.featureMatrix(f.Proposals)
	z := s.Backbone.Forward(x, false)
	logits := s.ClassHead.Forward(z, false)
	offsets := s.BoxHead.Forward(z, false)

	if cap(s.inferProbs) < logits.Cols {
		s.inferProbs = make([]float64, logits.Cols)
	}
	probs := s.inferProbs[:logits.Cols]
	//shoggoth:allow hotalloc -- the result escapes to the caller (α estimation retains it), so it cannot alias pinned scratch
	res := InferResult{Confidences: make([]float64, len(f.Proposals))}
	for i := range f.Proposals {
		tensor.SoftmaxRowInto(probs, logits.Row(i))
		cls, best := 0, probs[0]
		for c, p := range probs {
			if p > best {
				cls, best = c, p
			}
		}
		res.Confidences[i] = best
		if cls == s.BackgroundClass() || best < s.MinConfidence {
			continue
		}
		var off geom.Offset
		copy(off[:], offsets.Row(i))
		//shoggoth:allow hotalloc -- detections escape to the caller (recorded into Results), so the slice cannot be pinned scratch
		res.Detections = append(res.Detections, Detection{
			ProposalIdx: i,
			Class:       cls,
			Confidence:  best,
			Box:         off.Apply(f.Proposals[i].Anchor),
		})
	}
	return res
}

// Detect runs real-time inference and returns only the detections.
func (s *Student) Detect(f *video.Frame) []Detection {
	return s.Infer(f).Detections
}

// Confidences returns the per-proposal top softmax confidence (the α signal
// of §III-C). Prefer Infer when detections are needed too.
func (s *Student) Confidences(f *video.Frame) []float64 {
	return s.Infer(f).Confidences
}

// Clone deep-copies the student (weights, statistics), sharing nothing.
func (s *Student) Clone() *Student {
	return &Student{
		NumClasses:    s.NumClasses,
		FeatureDim:    s.FeatureDim,
		Backbone:      s.Backbone.Clone(),
		ClassHead:     s.ClassHead.Clone(),
		BoxHead:       s.BoxHead.Clone(),
		MinConfidence: s.MinConfidence,
	}
}

// SetCompute switches every tier-aware layer of the student's networks (see
// nn.Compute). Clones revert to the exact tier until their owner calls this.
func (s *Student) SetCompute(c nn.Compute) {
	s.Backbone.SetCompute(c)
	s.ClassHead.SetCompute(c)
	s.BoxHead.SetCompute(c)
}

// CopyWeightsFrom copies all weights and normalisation statistics from src.
func (s *Student) CopyWeightsFrom(src *Student) {
	s.Backbone.CopyWeightsFrom(src.Backbone)
	s.ClassHead.CopyWeightsFrom(src.ClassHead)
	s.BoxHead.CopyWeightsFrom(src.BoxHead)
}

// Params returns all trainable parameters (trunk + both heads).
//
//shoggoth:allow hotalloc -- runs once per trainer: Trainer.trainParams caches the result behind a nil guard
func (s *Student) Params() []*nn.Param {
	out := s.Backbone.Params()
	out = append(out, s.ClassHead.Params()...)
	out = append(out, s.BoxHead.Params()...)
	return out
}
