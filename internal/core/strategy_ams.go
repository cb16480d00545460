package core

import (
	"math"

	"shoggoth/internal/detect"
	"shoggoth/internal/netsim"
	"shoggoth/internal/sim"
	"shoggoth/internal/video"
)

// amsStrategy reproduces AMS (adaptive model streaming): the cloud
// fine-tunes its own copy of the student on raw uploaded samples and streams
// compressed model updates down to the edge.
type amsStrategy struct {
	BaseStrategy
	student *detect.Student // cloud-resident copy
	trainer *detect.Trainer
	costCfg detect.TrainerConfig // prices sessions even without a trainer
	busyTil float64              // cloud training serialisation
}

func (st *amsStrategy) Init(sys *System) error {
	st.Sys = sys
	// AMS fine-tunes the entire model in the cloud; its replay buffer holds
	// raw samples (no latent aging) at the same capacity.
	tc := sys.Config().Trainer
	tc.Placement = detect.PlacementInput
	st.costCfg = tc
	if sys.Student() == nil {
		// Events fidelity: cloud rounds are still scheduled and priced
		// (OnTrainDue), they just run no SGD and stream no weights.
		return nil
	}
	st.student = sys.Student().Clone()
	st.trainer = detect.NewTrainer(st.student, tc, sys.SeededRNG(RNGStreamAMSTrain))
	ws := sys.Workspace()
	st.trainer.AttachWorkspace(ws.Pool, ws.Perf)
	return nil
}

func (st *amsStrategy) OnFrame(f *video.Frame, t, dt float64) {
	st.Sys.InferFrame(f, t, dt)
	st.Sys.SampleForUpload(f, t)
}

// OnCloudBatch keeps the labels in the cloud: they feed the cloud-side
// trainer directly, nothing is downloaded until a model update ships.
func (st *amsStrategy) OnCloudBatch(frames []*video.Frame, labels [][]detect.TeacherLabel, done float64) {
	st.Sys.DepositLabels(frames, labels, done)
}

// OnTrainDue schedules a cloud-side training round and the model download
// that follows it.
func (st *amsStrategy) OnTrainDue(batch []detect.LabeledRegion, now float64) {
	sys := st.Sys
	cfg := sys.Config()
	cost := sys.ClaimSessionCost(st.costCfg)
	dur := cost.TotalSec() / amsCloudSpeedup
	start := math.Max(now, st.busyTil)
	end := start + dur
	st.busyTil = end
	// The round and the update's arrival touch the student, not the
	// sampler, so neither can move an upload: both are quiet.
	sys.Scheduler().Quiet(end, sim.Func(func(endNow float64) {
		if st.trainer != nil {
			st.trainer.RunSession(batch)
		}
		sys.AddSession()
		bytes := netsim.ModelUpdateBytes()
		sys.Usage().AddDown(bytes)
		arrive := endNow + cfg.DownlinkTransfer(bytes, endNow)
		sys.Scheduler().Quiet(arrive, sim.Func(func(applyNow float64) {
			if st.trainer != nil {
				st.applyUpdate()
			}
			sys.RecordSession(SessionRecord{Start: start, End: endNow, Applied: applyNow})
		}), 0)
	}), 0)
}

// applyUpdate installs the streamed model on the edge, with the quantization
// noise of AMS's compressed updates.
func (st *amsStrategy) applyUpdate() {
	sys := st.Sys
	student := sys.Student()
	student.CopyWeightsFrom(st.student)
	rng := sys.RNG()
	for _, p := range student.Params() {
		rms := p.Value.Norm2() / math.Sqrt(float64(len(p.Value.Data)))
		sigma := amsQuantNoise * rms
		for i := range p.Value.Data {
			p.Value.Data[i] += rng.NormFloat64() * sigma
		}
	}
}
