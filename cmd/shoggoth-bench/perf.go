package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"testing"

	"shoggoth/internal/cloud"
	"shoggoth/internal/detect"
	"shoggoth/internal/nn"
	"shoggoth/internal/sim"
	"shoggoth/internal/tensor"
	"shoggoth/internal/video"
)

// PerfRecord is one measurement of the compute core's hot paths.
type PerfRecord struct {
	// Label describes the code state and machine the record was taken on.
	Label string `json:"label"`

	TrainNsPerStep        float64 `json:"train_ns_per_step"`
	TrainStepsPerSec      float64 `json:"train_steps_per_sec"`
	TrainAllocsPerSession int64   `json:"train_allocs_per_session"`
	TrainBytesPerSession  int64   `json:"train_bytes_per_session"`

	InferNsPerFrame   float64 `json:"infer_ns_per_frame"`
	InferFramesPerSec float64 `json:"infer_frames_per_sec"`
	InferAllocsPerOp  int64   `json:"infer_allocs_per_frame"`

	// Cloud scheduling engine: virtual-time cost of admitting, scheduling
	// and labeling one 4-frame batch on a contended 8-device service —
	// the eager arrival-order path (fifo) and the deferred dispatch path
	// (wfq, queue scanned under backlog). Absent in records predating the
	// engine.
	CloudSchedFIFONsPerBatch float64 `json:"cloud_sched_fifo_ns_per_batch,omitempty"`
	CloudSchedWFQNsPerBatch  float64 `json:"cloud_sched_wfq_ns_per_batch,omitempty"`
}

// TierPerf is one compute tier's training trajectory: the steady-state
// adaptive-training step at the paper's configuration on that tier's
// kernels.
type TierPerf struct {
	// Tier and Lane identify the measured configuration ("exact", or
	// "fast" with its arithmetic width); Workers is the fast tier's
	// gradient-accumulation worker count (0 for exact).
	Tier    string `json:"tier"`
	Lane    string `json:"lane,omitempty"`
	Workers int    `json:"workers,omitempty"`

	TrainNsPerStep        float64 `json:"train_ns_per_step"`
	TrainStepsPerSec      float64 `json:"train_steps_per_sec"`
	TrainAllocsPerSession int64   `json:"train_allocs_per_session"`
	TrainBytesPerSession  int64   `json:"train_bytes_per_session"`
}

// TeacherBatchPerf compares per-frame teacher labeling against the fast
// tier's slab-batched labeling (cloud.Labeler.LabelBatch) over identical
// frames: the real wall-clock gain behind the Coalesce path's modeled one.
type TeacherBatchPerf struct {
	PerFrameNsPerFrame float64 `json:"per_frame_ns_per_frame"`
	BatchedNsPerFrame  float64 `json:"batched_ns_per_frame"`
	Speedup            float64 `json:"speedup"`
}

// CloudTierPerf measures the multi-replica routing tier: the wall-clock
// cost of one routed batch per stock router on a contended 3-replica tier,
// and the modeled teacher throughput with cross-device batching on vs off
// (same replica count, so the delta is coalescing alone).
type CloudTierPerf struct {
	// RouterNsPerDispatch is the cost of one 4-frame batch through
	// admission, routing and labeling, keyed by router name.
	RouterNsPerDispatch map[string]float64 `json:"router_ns_per_dispatch"`
	// UnbatchedBatchesPerBusySec is modeled teacher throughput (batches
	// served per teacher-busy second) with coalescing off.
	UnbatchedBatchesPerBusySec float64 `json:"unbatched_batches_per_busy_sec"`
	// BatchedBatchesPerBusySec is the same with 4-way coalescing.
	BatchedBatchesPerBusySec float64 `json:"batched_batches_per_busy_sec"`
	// BatchingSpeedup is batched over unbatched throughput.
	BatchingSpeedup float64 `json:"batching_speedup"`
	// CoalescedForwards counts multi-batch teacher forwards in the batched
	// measurement (a zero here means coalescing never engaged).
	CoalescedForwards int `json:"coalesced_forwards"`
}

// PerfFile is the on-disk schema of BENCH_core.json: the frozen pre-refactor
// baseline plus the most recent measurement, so every future PR has a perf
// trajectory to compare against.
type PerfFile struct {
	Schema   int         `json:"schema"`
	Note     string      `json:"note"`
	Baseline *PerfRecord `json:"baseline,omitempty"`
	Current  *PerfRecord `json:"current,omitempty"`

	SpeedupTrainNsPerStep float64 `json:"speedup_train_ns_per_step,omitempty"`
	SpeedupInferNsPerOp   float64 `json:"speedup_infer_ns_per_frame,omitempty"`
	AllocReductionTrain   float64 `json:"alloc_reduction_train,omitempty"`

	// Fleet is the fleet-scale record: rush-hour clusters at events
	// fidelity, 1k/10k/100k devices, event engine vs the legacy frame
	// stepper — uncapped, full per-device results, so the rows stay
	// comparable with the pre-rebuild trajectory. SpeedupFleet10k is the
	// engine's events/sec over the stepper's at 10k devices. Fleet100k
	// and Fleet1M measure the capped operating point (AggregateOnly,
	// QueueCap; the 1M record adds the engine phase split), and
	// SpeedupFleet100kVsSerialMerge is Fleet100k's events/sec against
	// the frozen pre-hierarchical-merge serial-drain baseline.
	Fleet                         []FleetPerfRecord  `json:"fleet,omitempty"`
	SpeedupFleet10k               float64            `json:"speedup_fleet_events_per_sec_10k,omitempty"`
	Fleet100k                     *Fleet1MPerfRecord `json:"fleet_100k_capped,omitempty"`
	Fleet1M                       *Fleet1MPerfRecord `json:"fleet_1m,omitempty"`
	SpeedupFleet100kVsSerialMerge float64            `json:"speedup_fleet_100k_vs_serial_merge,omitempty"`

	// CloudTier is the routing-tier microbenchmark: per-router dispatch
	// cost and batched-vs-unbatched modeled teacher throughput.
	CloudTier *CloudTierPerf `json:"cloud_tier,omitempty"`

	// Exact and Fast are the two compute tiers' training trajectories,
	// measured back to back on this machine; SpeedupFastOverExact is their
	// ns/step ratio (reported, not gated: it falls whenever the exact tier
	// gets faster) and SpeedupFastVsBaseline is the fast tier against the
	// frozen pre-refactor baseline, which the CI fast-tier gate reads.
	Exact                 *TierPerf `json:"exact_tier,omitempty"`
	Fast                  *TierPerf `json:"fast_tier,omitempty"`
	SpeedupFastOverExact  float64   `json:"speedup_fast_over_exact,omitempty"`
	SpeedupFastVsBaseline float64   `json:"speedup_fast_vs_baseline,omitempty"`

	// TeacherBatch is the slab-batched teacher labeling measurement.
	TeacherBatch *TeacherBatchPerf `json:"teacher_batch,omitempty"`
}

// measureTrainTier benchmarks the steady-state adaptive-training step on
// one compute tier at the paper's configuration (8 epochs, 64-sample
// mini-batches, warm 1500-sample replay memory on the UA-DETRAC profile).
// Every tier gets an identically seeded fresh trainer, so the numbers
// differ by kernels alone.
func measureTrainTier(compute nn.Compute, workers int) TierPerf {
	p := video.DETRACProfile()
	rng := rand.New(rand.NewPCG(7, 8))
	student := detect.NewStudent(p.FeatureDim(), p.NumClasses(), rng)
	cfg := detect.DefaultTrainerConfig()
	cfg.Compute = compute
	cfg.AccumWorkers = workers
	tr := detect.NewTrainer(student, cfg, rand.New(rand.NewPCG(9, 10)))
	for i := 0; i < 4; i++ {
		tr.RunSession(perfBatch(p, 300, rng))
	}
	batch := perfBatch(p, 64, rng)
	stepsPerSession := tr.RunSession(batch).Steps

	tp := TierPerf{Tier: compute.String(), Workers: workers}
	if compute.Fast {
		tp.Tier, tp.Lane = "fast", compute.Lane.String()
	}
	train := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.RunSession(batch)
		}
	})
	if stepsPerSession > 0 {
		tp.TrainNsPerStep = float64(train.NsPerOp()) / float64(stepsPerSession)
		if tp.TrainNsPerStep > 0 {
			tp.TrainStepsPerSec = 1e9 / tp.TrainNsPerStep
		}
	}
	tp.TrainAllocsPerSession = train.AllocsPerOp()
	tp.TrainBytesPerSession = train.AllocedBytesPerOp()
	return tp
}

// measureTeacherBatch compares per-frame labeling against slab-batched
// labeling over the same 16-frame batch on identically seeded labelers.
func measureTeacherBatch() TeacherBatchPerf {
	p := video.DETRACProfile()
	stream := video.NewStream(p, 5)
	frames := make([]*video.Frame, 16)
	for i := range frames {
		frames[i] = stream.Next()
	}
	mkLabeler := func() *cloud.Labeler {
		return cloud.NewLabeler(detect.NewTeacher(p, rand.New(rand.NewPCG(15, 16))), cloud.DefaultLabelerConfig())
	}

	perLab := mkLabeler()
	perFrame := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, f := range frames {
				perLab.LabelFrame(f)
			}
		}
	})
	batchLab := mkLabeler()
	batched := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			batchLab.LabelBatch(frames)
		}
	})

	tb := TeacherBatchPerf{
		PerFrameNsPerFrame: float64(perFrame.NsPerOp()) / float64(len(frames)),
		BatchedNsPerFrame:  float64(batched.NsPerOp()) / float64(len(frames)),
	}
	if tb.BatchedNsPerFrame > 0 {
		tb.Speedup = round2(tb.PerFrameNsPerFrame / tb.BatchedNsPerFrame)
	}
	return tb
}

// measurePerf benchmarks the compute core's remaining hot paths —
// single-frame inference and the cloud scheduling engine — and mirrors the
// exact tier's training numbers into the legacy record fields.
func measurePerf(label string, exact TierPerf) PerfRecord {
	p := video.DETRACProfile()
	rng := rand.New(rand.NewPCG(7, 8))
	student := detect.NewStudent(p.FeatureDim(), p.NumClasses(), rng)

	rec := PerfRecord{Label: label}
	rec.TrainNsPerStep = exact.TrainNsPerStep
	rec.TrainStepsPerSec = exact.TrainStepsPerSec
	rec.TrainAllocsPerSession = exact.TrainAllocsPerSession
	rec.TrainBytesPerSession = exact.TrainBytesPerSession

	stream := video.NewStream(p, 1)
	frame := stream.Next()
	student.Infer(frame)
	infer := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			student.Infer(frame)
		}
	})
	rec.InferNsPerFrame = float64(infer.NsPerOp())
	if rec.InferNsPerFrame > 0 {
		rec.InferFramesPerSec = 1e9 / rec.InferNsPerFrame
	}
	rec.InferAllocsPerOp = infer.AllocsPerOp()

	rec.CloudSchedFIFONsPerBatch = measureCloudSched("fifo")
	rec.CloudSchedWFQNsPerBatch = measureCloudSched("wfq")
	return rec
}

// measureCloudSched benchmarks the cloud scheduling engine: one 4-frame
// batch through admission, worker assignment, (for deferred policies)
// dispatch selection, and teacher labeling, on an 8-device service with 2
// workers and a bounded queue kept near-full — the cluster hot path that
// every labeled batch crosses.
func measureCloudSched(policy string) float64 {
	p := video.DETRACProfile()
	svc := cloud.NewService(cloud.ServiceConfig{QueueCap: 16, Policy: policy, Workers: 2})
	sched := sim.NewScheduler()
	svc.Bind(sched)
	const nDev = 8
	devs := make([]*cloud.ServiceDevice, nDev)
	for i := range devs {
		teacher := detect.NewTeacher(p, rand.New(rand.NewPCG(11, uint64(i))))
		d, err := svc.Register(fmt.Sprintf("bench-%d", i), teacher, cloud.DefaultLabelerConfig(), nil)
		if err != nil {
			panic(err)
		}
		devs[i] = d
	}
	stream := video.NewStream(p, 5)
	frames := make([]*video.Frame, 4)
	for i := range frames {
		frames[i] = stream.Next()
	}

	// Arrivals slightly above the 2-worker service rate (0.08 s vs the
	// 0.09 s/batch pool throughput) sustain a genuine backlog, capped by
	// QueueCap, so deferred policies pay their real selection cost over a
	// full pending queue instead of a trivially empty one.
	now, i := 0.0, 0
	res := testing.Benchmark(func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			now += 0.08
			devs[i%nDev].Enqueue(frames, now, func(cloud.BatchResult) {})
			i++
			sched.AdvanceTo(now)
		}
	})
	return float64(res.NsPerOp())
}

// measureCloudTier benchmarks the routing tier: per-router dispatch cost on
// a contended 3-replica tier, then modeled teacher throughput with 4-way
// cross-device batching on vs off at an identical 1-replica configuration.
func measureCloudTier() CloudTierPerf {
	tier := CloudTierPerf{RouterNsPerDispatch: make(map[string]float64)}
	for _, router := range cloud.RouterNames() {
		tier.RouterNsPerDispatch[router] = round2(measureTierRouting(router))
	}
	unbatched, _ := measureTierThroughput(0)
	batched, forwards := measureTierThroughput(4)
	tier.UnbatchedBatchesPerBusySec = round2(unbatched)
	tier.BatchedBatchesPerBusySec = round2(batched)
	tier.CoalescedForwards = forwards
	if unbatched > 0 {
		tier.BatchingSpeedup = round2(batched / unbatched)
	}
	return tier
}

// measureTierRouting is measureCloudSched across replicas: one 4-frame
// batch through token-free admission, the named router's Pick over three
// replica snapshots, worker assignment and teacher labeling, on a
// contended 8-device tier.
func measureTierRouting(router string) float64 {
	p := video.DETRACProfile()
	tier := cloud.NewTier(cloud.TierConfig{
		Replicas: 3,
		Router:   router,
		Service:  cloud.ServiceConfig{QueueCap: 16, Workers: 2},
	})
	sched := sim.NewScheduler()
	tier.Bind(sched)
	const nDev = 8
	devs := make([]*cloud.TierDevice, nDev)
	for i := range devs {
		teacher := detect.NewTeacher(p, rand.New(rand.NewPCG(11, uint64(i))))
		d, err := tier.Register(fmt.Sprintf("bench-%d", i), teacher, cloud.DefaultLabelerConfig(), nil, cloud.DeviceOptions{})
		if err != nil {
			panic(err)
		}
		devs[i] = d
	}
	stream := video.NewStream(p, 5)
	frames := make([]*video.Frame, 4)
	for i := range frames {
		frames[i] = stream.Next()
	}

	// Arrivals slightly above the 3-replica service rate keep every
	// replica's queue non-trivial, so routers rank genuinely loaded
	// snapshots.
	now, i := 0.0, 0
	res := testing.Benchmark(func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			now += 0.03
			devs[i%nDev].Enqueue(frames, now, func(cloud.BatchResult) {})
			i++
			sched.AdvanceTo(now)
		}
	})
	return float64(res.NsPerOp())
}

// measureTierThroughput runs 400 dense 4-frame batches through a 1-replica
// FIFO tier and reports modeled teacher throughput — batches served per
// teacher-busy second — plus the number of coalesced forwards. coalesce 0
// is the unbatched reference; coalesce B prices each group's riders at the
// marginal batching cost, which is exactly the throughput gain being
// measured. Virtual-time, fully deterministic: no wall clock involved.
func measureTierThroughput(coalesce int) (float64, int) {
	p := video.DETRACProfile()
	tier := cloud.NewTier(cloud.TierConfig{
		Replicas: 1,
		Service:  cloud.ServiceConfig{Policy: "fifo", Workers: 1, Coalesce: coalesce},
	})
	sched := sim.NewScheduler()
	tier.Bind(sched)
	const nDev = 8
	devs := make([]*cloud.TierDevice, nDev)
	for i := range devs {
		teacher := detect.NewTeacher(p, rand.New(rand.NewPCG(13, uint64(i))))
		d, err := tier.Register(fmt.Sprintf("tput-%d", i), teacher, cloud.DefaultLabelerConfig(), nil, cloud.DeviceOptions{})
		if err != nil {
			panic(err)
		}
		devs[i] = d
	}
	stream := video.NewStream(p, 5)
	frames := make([]*video.Frame, 4)
	for i := range frames {
		frames[i] = stream.Next()
	}

	// All arrivals land before any service completes, so the pending queue
	// stays deep enough for every coalesced group to fill to the bound.
	now := 0.0
	for n := 0; n < 400; n++ {
		now += 0.0001
		devs[n%nDev].Enqueue(frames, now, func(cloud.BatchResult) {})
	}
	sched.AdvanceTo(now + 1e6)
	st := tier.TierStats()
	if st.BusySeconds <= 0 {
		return 0, st.CoalescedForwards
	}
	return float64(st.Batches) / st.BusySeconds, st.CoalescedForwards
}

// perfBatch synthesises labeled regions from the profile's pretrain
// distribution, mirroring the fixture of the BenchmarkStep tests.
func perfBatch(p *video.Profile, n int, rng *rand.Rand) []detect.LabeledRegion {
	set := video.GeneratePretrainSet(p, n, rng)
	out := make([]detect.LabeledRegion, len(set))
	for i, smp := range set {
		out[i] = detect.LabeledRegion{
			Features: smp.Features,
			Class:    smp.Class,
			Offset:   smp.Offset,
			HasBox:   smp.HasBox,
		}
	}
	return out
}

// runPerf refreshes the "current" record of BENCH_core.json, preserving the
// frozen pre-refactor baseline, and prints a one-screen summary. Every
// derived speedup is recomputed from the numbers just measured — nothing in
// the file is allowed to go stale. minFastSpeedup > 0 turns the fast tier's
// ns/step ratio over the frozen baseline record into a hard gate — over the
// baseline, not over exact: a ratio against the exact tier would fail a
// change for speeding the exact tier up (fastTierGate).
func runPerf(path string, minFastSpeedup float64) error {
	var file PerfFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			return fmt.Errorf("parse existing %s: %w", path, err)
		}
	}
	if file.Schema == 0 {
		file.Schema = 1
	}
	file.Note = "Compute-core perf trajectory. 'baseline' is the frozen pre-workspace-refactor " +
		"measurement; refresh everything else with: shoggoth-bench -perf. Paper config: 8 epochs, " +
		"64-sample mini-batches, warm 1500-sample replay memory, UA-DETRAC profile. " +
		"'exact_tier'/'fast_tier' are the two compute tiers measured back to back."

	exact := measureTrainTier(nn.Compute{}, 0)
	fast := measureTrainTier(nn.Compute{Fast: true, Lane: tensor.LaneF64}, 1)
	file.Exact, file.Fast = &exact, &fast
	if fast.TrainNsPerStep > 0 {
		file.SpeedupFastOverExact = round2(exact.TrainNsPerStep / fast.TrainNsPerStep)
	}

	rec := measurePerf("workspace-buffered compute core", exact)
	file.Current = &rec
	tb := measureTeacherBatch()
	file.TeacherBatch = &tb
	fleet, err := measureFleet()
	if err != nil {
		return err
	}
	file.Fleet = fleet
	file.SpeedupFleet10k = fleetSpeedup(fleet, 10_000)
	f100k, err := measureFleetCapped(100_000, 0.02)
	if err != nil {
		return err
	}
	file.Fleet100k = &f100k
	if f100k.EventsPerSec > 0 {
		file.SpeedupFleet100kVsSerialMerge = round2(f100k.EventsPerSec / serialMergeBaseline100k)
	}
	fmt.Printf("perf: fleet 100k capped %7.1fvs %7.1fs wall  %12d events  %12.0f ev/s\n",
		f100k.VirtualSec, f100k.WallSec, f100k.Events, f100k.EventsPerSec)
	f1m, err := measureFleet1M()
	if err != nil {
		return err
	}
	file.Fleet1M = &f1m
	ct := measureCloudTier()
	file.CloudTier = &ct
	if b := file.Baseline; b != nil {
		if rec.TrainNsPerStep > 0 {
			file.SpeedupTrainNsPerStep = round2(b.TrainNsPerStep / rec.TrainNsPerStep)
		}
		if fast.TrainNsPerStep > 0 {
			file.SpeedupFastVsBaseline = round2(b.TrainNsPerStep / fast.TrainNsPerStep)
		}
		if rec.InferNsPerFrame > 0 {
			file.SpeedupInferNsPerOp = round2(b.InferNsPerFrame / rec.InferNsPerFrame)
		}
		if rec.TrainAllocsPerSession > 0 {
			file.AllocReductionTrain = round2(float64(b.TrainAllocsPerSession) / float64(rec.TrainAllocsPerSession))
		}
	}

	out, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}

	fmt.Printf("perf: exact train %.0f ns/step (%.0f steps/s), %d allocs/session\n",
		exact.TrainNsPerStep, exact.TrainStepsPerSec, exact.TrainAllocsPerSession)
	fmt.Printf("perf: fast  train %.0f ns/step (%.0f steps/s), %d allocs/session — %.2fx over exact\n",
		fast.TrainNsPerStep, fast.TrainStepsPerSec, fast.TrainAllocsPerSession, file.SpeedupFastOverExact)
	fmt.Printf("perf: infer %.0f ns/frame (%.0f frames/s), %d allocs/frame\n",
		rec.InferNsPerFrame, rec.InferFramesPerSec, rec.InferAllocsPerOp)
	fmt.Printf("perf: teacher labeling %.0f -> %.0f ns/frame slab-batched (%.2fx)\n",
		tb.PerFrameNsPerFrame, tb.BatchedNsPerFrame, tb.Speedup)
	fmt.Printf("perf: cloud scheduling %.0f ns/batch (fifo), %.0f ns/batch (wfq, contended dispatch)\n",
		rec.CloudSchedFIFONsPerBatch, rec.CloudSchedWFQNsPerBatch)
	fmt.Printf("perf: cloud tier routing rr=%.0f ll=%.0f da=%.0f ns/dispatch; teacher batching %.1f -> %.1f batches/busy-sec (%.2fx, %d coalesced forwards)\n",
		ct.RouterNsPerDispatch["round-robin"], ct.RouterNsPerDispatch["least-loaded"], ct.RouterNsPerDispatch["domain-affinity"],
		ct.UnbatchedBatchesPerBusySec, ct.BatchedBatchesPerBusySec, ct.BatchingSpeedup, ct.CoalescedForwards)
	if file.Baseline != nil {
		fmt.Printf("perf: vs baseline — exact %.2fx ns/step, fast %.2fx ns/step, infer %.2fx ns/frame, %.0fx fewer train allocs\n",
			file.SpeedupTrainNsPerStep, file.SpeedupFastVsBaseline, file.SpeedupInferNsPerOp, file.AllocReductionTrain)
	}
	if file.SpeedupFleet10k > 0 {
		fmt.Printf("perf: fleet event engine %.1fx stepper events/sec at 10k devices\n", file.SpeedupFleet10k)
	}
	if file.SpeedupFleet100kVsSerialMerge > 0 {
		fmt.Printf("perf: fleet 100k engine %.1fx the frozen serial-merge baseline (%.0f ev/s)\n",
			file.SpeedupFleet100kVsSerialMerge, serialMergeBaseline100k)
	}
	if file.Fleet1M != nil {
		fmt.Printf("perf: fleet 1M %.0f ev/s, merge phase %.1f%% of engine wall time\n",
			file.Fleet1M.EventsPerSec, file.Fleet1M.MergePhaseShare)
	}
	fmt.Printf("perf: wrote %s\n", path)

	if minFastSpeedup > 0 {
		verdict, err := fastTierGate(&file, minFastSpeedup, tensor.FastAccelerated())
		if err != nil {
			return err
		}
		fmt.Printf("perf: fast-tier gate %s\n", verdict)
	}
	return nil
}

// fastTierGate holds the fast tier's train step to minSpeedup times the
// frozen baseline record's and says what it decided. It abstains where the
// ratio would not be about the code: no assembly microkernels on this
// machine, or no baseline record in the file.
func fastTierGate(file *PerfFile, minSpeedup float64, accelerated bool) (verdict string, err error) {
	switch {
	case !accelerated:
		return "skipped (no AVX2+FMA microkernels on this machine)", nil
	case file.Baseline == nil:
		return "skipped (the perf file holds no baseline record)", nil
	case file.SpeedupFastVsBaseline < minSpeedup:
		return "", fmt.Errorf("fast tier gate: %.2fx over the frozen baseline, need >= %.2fx", file.SpeedupFastVsBaseline, minSpeedup)
	}
	return fmt.Sprintf("passed (%.2fx over the frozen baseline >= %.2fx)", file.SpeedupFastVsBaseline, minSpeedup), nil
}

func round2(v float64) float64 {
	return float64(int(v*100+0.5)) / 100
}
