package core

import (
	"math"
	"slices"

	"shoggoth/internal/detect"
	"shoggoth/internal/netsim"
	"shoggoth/internal/sim"
	"shoggoth/internal/video"
)

// edgeTrainStrategy is the decoupled-distillation family (Shoggoth and
// Prompt): the cloud labels uploaded samples, the labels stream back, and
// the edge fine-tunes its own student with latent replay. Shoggoth adds the
// adaptive sampling controller via its Traits; Prompt pins the maximum rate
// via its Preset — the deployment behaviour here is identical.
type edgeTrainStrategy struct {
	BaseStrategy
	trainer *detect.Trainer
	busyTil float64 // edge training serialisation
}

func (st *edgeTrainStrategy) Init(sys *System) error {
	st.Sys = sys
	if sys.Student() == nil {
		// Events fidelity: no student to fine-tune. Sessions are still
		// scheduled and priced (OnTrainDue), they just run no SGD.
		return nil
	}
	st.trainer = detect.NewTrainer(sys.Student(), sys.Config().Trainer, sys.SeededRNG(RNGStreamEdgeTrain))
	ws := sys.Workspace()
	st.trainer.AttachWorkspace(ws.Pool, ws.Perf)
	return nil
}

func (st *edgeTrainStrategy) OnFrame(f *video.Frame, t, dt float64) {
	st.Sys.InferFrame(f, t, dt)
	st.Sys.SampleForUpload(f, t)
}

// OnCloudBatch sends the label sets down to the edge; the training batch
// accumulates once they arrive. The frames are the upload's, reused once
// this returns, so the deposit keeps what it needs of them: their count at
// events fidelity, a copy of the slice of the renderer's frames at full.
func (st *edgeTrainStrategy) OnCloudBatch(frames []*video.Frame, labels [][]detect.TeacherLabel, done float64) {
	sys := st.Sys
	cfg := &sys.cfg // Config() would copy it for every labeled batch
	var nRegions int
	if labels == nil {
		// Analytic labeling (events fidelity) returns no label sets; price
		// the downlink from the expected region count instead.
		nRegions = sys.AnalyticRegions(frames)
	} else {
		for _, ls := range labels {
			nRegions += len(ls)
		}
	}
	lb := netsim.LabelSetBytes(nRegions)
	sys.Usage().AddDown(lb)
	at := done + cfg.DownlinkTransfer(lb, done)
	// The deposit is quiet: it counts toward the next training session,
	// which cannot move an upload either.
	if labels == nil {
		sys.Scheduler().Quiet(at, (*labelDeposit)(sys), float64(len(frames)))
		return
	}
	kept := slices.Clone(frames)
	sys.Scheduler().Quiet(at, sim.Func(func(labNow float64) { sys.DepositLabels(kept, labels, labNow) }), 0)
}

// OnTrainDue schedules an adaptive-training session on the edge device.
// Without a trainer (events fidelity) the session is priced and occupies
// the device for its full duration — only the SGD itself is skipped.
func (st *edgeTrainStrategy) OnTrainDue(batch []detect.LabeledRegion, now float64) {
	sys := st.Sys
	cost := sys.ClaimSessionCost(sys.Config().Trainer)
	start := math.Max(now, st.busyTil)
	end := start + cost.TotalSec()
	st.busyTil = end
	// A session loads the device, which changes the frames it infers but
	// not the frames it samples: both events are quiet.
	sys.Scheduler().Quiet(start, sim.Func(func(float64) { sys.Device().BeginTraining(end) }), 0)
	sys.Scheduler().Quiet(end, sim.Func(func(endNow float64) {
		if st.trainer != nil {
			st.trainer.RunSession(batch)
		}
		sys.AddSession()
		sys.RecordSession(SessionRecord{Start: start, End: endNow, Applied: endNow})
	}), 0)
}
