package core

import (
	"math"
	"slices"

	"shoggoth/internal/detect"
	"shoggoth/internal/netsim"
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
	var deposit func(float64)
	if labels == nil {
		// Analytic labeling (events fidelity) returns no label sets; price
		// the downlink from the expected region count instead.
		nRegions = sys.AnalyticRegions(frames)
		n := len(frames)
		deposit = func(labNow float64) { sys.depositCount(n, labNow) }
	} else {
		for _, ls := range labels {
			nRegions += len(ls)
		}
		kept := slices.Clone(frames)
		deposit = func(labNow float64) { sys.DepositLabels(kept, labels, labNow) }
	}
	lb := netsim.LabelSetBytes(nRegions)
	sys.Usage().AddDown(lb)
	at := done + cfg.DownlinkTransfer(lb, done)
	sys.Scheduler().At(at, deposit)
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
	sys.Scheduler().At(start, func(float64) { sys.Device().BeginTraining(end) })
	sys.Scheduler().At(end, func(endNow float64) {
		if st.trainer != nil {
			st.trainer.RunSession(batch)
		}
		sys.AddSession()
		sys.RecordSession(SessionRecord{Start: start, End: endNow, Applied: endNow})
	})
}
