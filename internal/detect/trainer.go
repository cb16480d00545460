package detect

import (
	"math/rand/v2"

	"shoggoth/internal/nn"
	"shoggoth/internal/replay"
	"shoggoth/internal/tensor"
)

// TrainerConfig selects the adaptive-training variant (paper §III-B and the
// Table II ablation).
type TrainerConfig struct {
	// Placement is the replay-layer position. PlacementPool is the paper's
	// default ("replay occurs on the penultimate layer (pool)").
	Placement ReplayPlacement
	// NoReplay disables the replay memory entirely: training uses only the
	// current batch and fine-tunes the full network (Table II row 5).
	NoReplay bool
	// CompletelyFrozen freezes front-layer weights AND normalisation
	// moments from the start (Table II row 3). The default instead trains
	// the front during the first batch, then freezes weights while letting
	// BRN moments adapt freely.
	CompletelyFrozen bool

	Epochs        int     // paper: 8
	MiniBatch     int     // paper: 64
	LR            float64 // SGD learning rate
	Momentum      float64
	BoxLossWeight float64
	// ReplayCapacity is the replay memory size in samples (paper: 1500
	// images per 300-image batch).
	ReplayCapacity int
	// ReplayPolicy selects the replacement rule: reservoir (Algorithm 1,
	// the default) or FIFO (recency-biased ablation baseline).
	ReplayPolicy replay.Policy

	// Compute selects the kernel tier (zero value: exact). On the fast tier
	// every mini-batch additionally splits into accumShards fixed row shards
	// whose gradients reduce in a deterministic tree (see accum.go).
	Compute nn.Compute
	// AccumWorkers caps the goroutines executing shards on the fast tier;
	// 0 and 1 run shards inline. The shard count and reduction order never
	// depend on it, so every worker count trains byte-identically.
	AccumWorkers int
}

// DefaultTrainerConfig returns the paper's configuration.
func DefaultTrainerConfig() TrainerConfig {
	return TrainerConfig{
		Placement:      PlacementPool,
		Epochs:         8,
		MiniBatch:      64,
		LR:             0.05,
		Momentum:       0.9,
		BoxLossWeight:  1.0,
		ReplayCapacity: 1500,
	}
}

// SessionStats summarises one adaptive-training session.
type SessionStats struct {
	Session       int
	Steps         int
	AvgClassLoss  float64
	AvgBoxLoss    float64
	NewSamples    int
	ReplaySamples int
	FrontTrained  bool
}

// Trainer performs adaptive-training sessions on a student (paper Fig. 3):
// mini-batch SGD where each mini-batch concatenates K·N/(N+M) fresh samples
// (which cross the front layers) with K·M/(N+M) replay activations injected
// at the replay layer; the backward pass stops at the replay layer once the
// front is frozen. The same Trainer is reused by the AMS baseline, which
// runs it in the cloud on a model copy.
//
// A Trainer owns a workspace of pinned mini-batch buffers (fresh-sample
// selection, replay concatenation, supervision targets, gradients) that are
// sized on the first session and reused afterwards, so a steady-state
// training step performs zero heap allocations. It is single-session state:
// never share a Trainer, its pool, or its student across goroutines.
type Trainer struct {
	Config  TrainerConfig
	Student *Student
	Memory  *replay.Memory

	opt      *nn.SGD
	rng      *rand.Rand
	sessions int

	pool               *tensor.Pool   // session scratch pool (AttachWorkspace replaces it)
	perf               *PerfCounters  // optional workspace counters
	loss               nn.LossScratch // reusable loss gradients
	params             []*nn.Param    // pinned parameter list for the optimizer
	newX, concat, boxT *tensor.Matrix // pinned batch buffers
	labels             []int
	mask               []bool
	permBuf            []int
	replayBuf          []replay.Sample
	memSamples         []replay.Sample // reusable staging for updateMemory
	shards             shardState      // fast-tier parallel accumulation state
}

// NewTrainer creates a trainer bound to a student.
func NewTrainer(s *Student, cfg TrainerConfig, rng *rand.Rand) *Trainer {
	if cfg.NoReplay {
		cfg.ReplayCapacity = 0
		cfg.Placement = PlacementInput // full network trains on raw inputs
	}
	s.SetCompute(cfg.Compute)
	return &Trainer{
		Config:  cfg,
		Student: s,
		Memory:  replay.NewMemoryWithPolicy(cfg.ReplayCapacity, cfg.ReplayPolicy, rng),
		opt:     nn.NewSGD(cfg.LR, cfg.Momentum),
		rng:     rng,
		pool:    tensor.NewPool(),
	}
}

// AttachWorkspace points the trainer at a session-owned scratch pool and
// perf counters (the per-session workspace threaded through core.System).
// Call before the first session; both may be nil to keep trainer-private
// defaults.
func (t *Trainer) AttachWorkspace(pool *tensor.Pool, perf *PerfCounters) {
	if pool != nil {
		t.pool = pool
	}
	t.perf = perf
}

// split returns the backbone index of the replay layer.
func (t *Trainer) split() int {
	idx := t.Config.Placement.Index()
	if idx > t.Student.Backbone.Len() {
		idx = t.Student.Backbone.Len()
	}
	return idx
}

// frontTrainable reports whether this session trains the front layers.
func (t *Trainer) frontTrainable() bool {
	if t.split() == 0 {
		return false // no front: everything is tail
	}
	if t.Config.CompletelyFrozen {
		return false
	}
	return t.sessions == 0 // paper: LR→0 after the first batch
}

// trainParams returns the pinned full parameter list, built once per
// trainer (the student's parameter set is fixed; LR scales mutate the
// shared Param structs, not this list).
func (t *Trainer) trainParams() []*nn.Param {
	if t.params == nil {
		t.params = t.Student.Params()
	}
	return t.params
}

// ensureInts returns s resized to n, reusing its backing array when possible.
func ensureInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// ensureBools returns s resized to n, reusing its backing array when possible.
func ensureBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// RunSession fine-tunes the student on the labeled batch plus replay memory
// and then updates the memory per Algorithm 1.
//
//shoggoth:hotpath
func (t *Trainer) RunSession(batch []LabeledRegion) SessionStats {
	started := t.perf.Now()
	cfg := t.Config
	s := t.Student
	split := t.split()
	stats := SessionStats{Session: t.sessions, NewSamples: len(batch), ReplaySamples: t.Memory.Len()}
	if len(batch) == 0 {
		t.sessions++
		return stats
	}

	frontTrain := t.frontTrainable()
	stats.FrontTrained = frontTrain
	// Freezing schedule: LR scale 0 stops weight updates; BRN moments keep
	// adapting unless CompletelyFrozen (train=false front passes).
	if split > 0 {
		if frontTrain {
			s.Backbone.SetLRScaleRange(0, split, 1)
		} else {
			s.Backbone.SetLRScaleRange(0, split, 0)
		}
		s.Backbone.SetStatsFrozenRange(0, split, cfg.CompletelyFrozen)
	}
	s.Backbone.SetLRScaleRange(split, s.Backbone.Len(), 1)

	// Raw feature matrix of the new batch (front input) — pinned buffer.
	t.newX = tensor.Ensure(t.newX, len(batch), len(batch[0].Features))
	newX := t.newX
	for i, r := range batch {
		copy(newX.Row(i), r.Features)
	}

	kNew, kRep := replay.MixCounts(cfg.MiniBatch, len(batch), t.Memory.Len())
	if t.Memory.Len() == 0 {
		kNew, kRep = minInt(cfg.MiniBatch, len(batch)), 0
	}

	// The fast tier shards the mini-batch once the front is frozen (the
	// sharded backward has no path into the front). When the placement's
	// tail cannot shard, shards.ok stays false and the serial path below
	// runs on fast kernels instead.
	if cfg.Compute.Fast && !frontTrain {
		t.buildShards(split)
	}
	useShards := cfg.Compute.Fast && !frontTrain && t.shards.ok

	var sumCls, sumBox float64
	// frontPassTrain: true unless the front is completely frozen — BRN
	// moments adapt to the current scene statistics on every pass.
	frontPassTrain := !cfg.CompletelyFrozen

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		t.permBuf = replay.PermInto(t.rng, len(batch), t.permBuf)
		order := t.permBuf
		for lo := 0; lo < len(order); lo += kNew {
			hi := minInt(lo+kNew, len(order))
			newIdx := order[lo:hi]
			t.replayBuf = t.Memory.SampleInto(kRep, t.replayBuf)
			replaySamples := t.replayBuf

			// Forward: fresh samples cross the front; replay activations
			// are injected at the replay layer (paper Fig. 3 concat). The
			// selection buffer is pool scratch because its row count varies
			// with the final partial mini-batch.
			sel := t.pool.Get(len(newIdx), newX.Cols)
			tensor.SelectRowsInto(sel, newX, newIdx)
			var frontOut *tensor.Matrix
			if split > 0 {
				frontOut = s.Backbone.ForwardRange(0, split, sel, frontPassTrain)
			} else {
				frontOut = sel
			}
			rows := frontOut.Rows + len(replaySamples)
			t.concat = tensor.Ensure(t.concat, rows, frontOut.Cols)
			concat := t.concat
			copy(concat.Data, frontOut.Data)
			t.labels = ensureInts(t.labels, rows)
			labels := t.labels
			t.boxT = tensor.Ensure(t.boxT, rows, 4)
			boxTargets := t.boxT
			t.mask = ensureBools(t.mask, rows)
			mask := t.mask
			for i, bi := range newIdx {
				r := batch[bi]
				labels[i] = r.Class
				mask[i] = r.HasBox
				if r.HasBox {
					copy(boxTargets.Row(i), r.Offset[:])
				}
			}
			for j, rs := range replaySamples {
				row := frontOut.Rows + j
				copy(concat.Row(row), rs.Activation)
				labels[row] = rs.Class
				mask[row] = rs.HasBox
				if rs.HasBox {
					copy(boxTargets.Row(row), rs.BoxTarget[:])
				}
			}

			if useShards {
				lossC, lossB := t.shardedStep(concat, labels, boxTargets, mask)
				sumCls += lossC
				sumBox += lossB
				stats.Steps++
				t.opt.Step(t.trainParams())
				t.pool.Put(sel)
				continue
			}

			z := s.Backbone.ForwardRange(split, s.Backbone.Len(), concat, true)
			logits := s.ClassHead.Forward(z, true)
			offsets := s.BoxHead.Forward(z, true)

			lossC, gLogits := t.loss.SoftmaxCrossEntropy(logits, labels)
			lossB, gOffsets := t.loss.SmoothL1(offsets, boxTargets, mask)
			sumCls += lossC
			sumBox += lossB
			stats.Steps++

			gz := s.ClassHead.Backward(gLogits)
			if cfg.BoxLossWeight != 0 {
				gOffsets.ScaleInPlace(cfg.BoxLossWeight)
				tensor.AddInPlace(gz, s.BoxHead.Backward(gOffsets))
			}
			gIn := s.Backbone.BackwardRange(split, s.Backbone.Len(), gz)
			if frontTrain && split > 0 {
				// Only the fresh rows propagate into the front layers;
				// replay activations carry no path back to the input.
				gNew := t.pool.Get(frontOut.Rows, gIn.Cols)
				copy(gNew.Data, gIn.Data[:frontOut.Rows*gIn.Cols])
				s.Backbone.BackwardRange(0, split, gNew)
				t.pool.Put(gNew)
			}
			t.opt.Step(t.trainParams())
			t.pool.Put(sel)
		}
	}

	if stats.Steps > 0 {
		stats.AvgClassLoss = sumCls / float64(stats.Steps)
		stats.AvgBoxLoss = sumBox / float64(stats.Steps)
	}

	t.updateMemory(batch, newX, split)
	t.sessions++
	if t.perf != nil {
		t.perf.TrainSessions++
		t.perf.TrainSteps += int64(stats.Steps)
		t.perf.TrainSeconds += t.perf.Now() - started
	}
	return stats
}

// updateMemory stores the batch's replay-layer activations (Algorithm 1).
// Activations are captured in eval mode with the post-session front, so they
// stay consistent with the frozen front in later sessions; any residual
// drift from BRN-moment adaptation is the paper's "aging effect". The
// activation copies deliberately allocate: they are handed to the replay
// memory, which owns them for many future sessions.
func (t *Trainer) updateMemory(batch []LabeledRegion, newX *tensor.Matrix, split int) {
	if t.Memory.Cap() == 0 {
		t.Memory.Update(nil) // still counts the run for Algorithm 1 bookkeeping
		return
	}
	var acts *tensor.Matrix
	if split > 0 {
		acts = t.Student.Backbone.ForwardRange(0, split, newX, false)
	} else {
		acts = newX
	}
	if cap(t.memSamples) < len(batch) {
		t.memSamples = make([]replay.Sample, len(batch))
	}
	samples := t.memSamples[:len(batch)]
	for i, r := range batch {
		samples[i] = replay.Sample{
			//shoggoth:allow hotalloc -- deliberate copy: the replay memory owns the activation for many future sessions, so it must not alias the forward buffer
			Activation: append([]float64(nil), acts.Row(i)...),
			Class:      r.Class,
			HasBox:     r.HasBox,
			CapturedAt: r.Time,
		}
		if r.HasBox {
			samples[i].BoxTarget = r.Offset
		}
	}
	t.Memory.Update(samples)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
