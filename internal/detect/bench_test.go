package detect

import (
	"math/rand/v2"
	"testing"

	"shoggoth/internal/video"
)

// benchTrainerFixture builds a trainer with a warmed replay memory plus a
// representative labeled batch, mirroring a steady-state adaptive-training
// session on the UA-DETRAC profile.
func benchTrainerFixture(b *testing.B, epochs int) (*Trainer, []LabeledRegion) {
	b.Helper()
	rng := rand.New(rand.NewPCG(7, 8))
	p := video.DETRACProfile()
	s := NewStudent(p.FeatureDim(), p.NumClasses(), rng)

	cfg := DefaultTrainerConfig()
	cfg.Epochs = epochs
	batch := benchBatch(p, 64, rng)

	tr := NewTrainer(s, cfg, rand.New(rand.NewPCG(9, 10)))
	// Warm the replay memory so the benchmark measures the steady state
	// (replay sampling + concat assembly included).
	for i := 0; i < 4; i++ {
		tr.RunSession(benchBatch(p, 300, rng))
	}
	return tr, batch
}

// benchBatch synthesises n labeled regions from the profile's pretrain
// distribution (features + class + box targets).
func benchBatch(p *video.Profile, n int, rng *rand.Rand) []LabeledRegion {
	set := video.GeneratePretrainSet(p, n, rng)
	out := make([]LabeledRegion, len(set))
	for i, smp := range set {
		out[i] = LabeledRegion{
			Features: smp.Features,
			Class:    smp.Class,
			Offset:   smp.Offset,
			HasBox:   smp.HasBox,
		}
	}
	return out
}

// BenchmarkStepTrainer measures one full adaptive-training session at the
// paper's configuration (8 epochs, 64-sample mini-batches, warm 1500-sample
// replay memory) and reports ns/step across its SGD steps: replay sampling,
// mini-batch assembly, forward, loss, backward and the optimizer update.
// The repo benchmark tracks the same step as detect.train_step_exact_ns and
// detect.train_session_allocs (BENCHMARK.json).
func BenchmarkStepTrainer(b *testing.B) {
	tr, batch := benchTrainerFixture(b, 8)
	tr.Config.MiniBatch = 64
	b.ReportAllocs()
	b.ResetTimer()
	steps := 0
	for i := 0; i < b.N; i++ {
		stats := tr.RunSession(batch)
		steps += stats.Steps
	}
	b.StopTimer()
	if steps > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
	}
}

// BenchmarkStepInfer measures single-frame student inference (the per-frame
// edge hot path).
func BenchmarkStepInfer(b *testing.B) {
	rng := rand.New(rand.NewPCG(11, 12))
	p := video.DETRACProfile()
	s := NewStudent(p.FeatureDim(), p.NumClasses(), rng)
	stream := video.NewStream(p, 1)
	f := stream.Next()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Infer(f)
	}
}
