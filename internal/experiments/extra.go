package experiments

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"shoggoth/internal/core"
	"shoggoth/internal/detect"
	"shoggoth/internal/replay"
	"shoggoth/internal/video"
)

// ExtraResult covers the design-choice ablations beyond the paper's Table II
// (DESIGN.md §5): BatchRenorm vs plain BatchNorm, reservoir vs FIFO replay
// replacement, and the contribution of each controller signal.
type ExtraResult struct {

	// BRN vs BN under the full Shoggoth pipeline on UA-DETRAC.
	BRNMap float64
	BNMap  float64

	// Reservoir (Algorithm 1) vs FIFO replacement.
	ReservoirMap float64
	FIFOMap      float64

	// Controller signal variants: full Eq. (2), φ-only, α-only.
	FullCtrlIoU  float64
	PhiOnlyIoU   float64
	AlphaOnlyIoU float64
	FullCtrlUp   float64
	PhiOnlyUp    float64
	AlphaOnlyUp  float64
}

// Extra runs the three additional ablations.
func Extra(m Mode) (*ExtraResult, error) {
	p := video.DETRACProfile()
	out := &ExtraResult{}

	// The BN variant needs its own pretrained model (different architecture).
	bnStudent := detect.NewStudentWithNorm(p.FeatureDim(), p.NumClasses(), false, rand.New(rand.NewPCG(p.Seed, 3)))
	bnSet := video.GeneratePretrainSet(p, p.PretrainSamples, rand.New(rand.NewPCG(p.Seed, 4)))
	detect.Pretrain(bnStudent, bnSet, detect.DefaultPretrainConfig(), rand.New(rand.NewPCG(p.Seed, 5)))

	cfgBRN := configFor(core.Shoggoth, p, m)
	cfgBN := configFor(core.Shoggoth, p, m)
	cfgBN.Pretrained = bnStudent

	cfgFIFO := configFor(core.Shoggoth, p, m)
	cfgFIFO.Trainer.ReplayPolicy = replay.PolicyFIFO

	cfgPhiOnly := configFor(core.Shoggoth, p, m)
	cfgPhiOnly.Controller.EtaAlpha = 0

	cfgAlphaOnly := configFor(core.Shoggoth, p, m)
	cfgAlphaOnly.Controller.EtaR = 0

	results, err := runAll(m, []core.Config{cfgBRN, cfgBN, cfgFIFO, cfgPhiOnly, cfgAlphaOnly})
	if err != nil {
		return nil, err
	}
	out.BRNMap = results[0].MAP50
	out.BNMap = results[1].MAP50
	out.ReservoirMap = results[0].MAP50
	out.FIFOMap = results[2].MAP50
	out.FullCtrlIoU, out.FullCtrlUp = results[0].AvgIoU, results[0].UpKbps
	out.PhiOnlyIoU, out.PhiOnlyUp = results[3].AvgIoU, results[3].UpKbps
	out.AlphaOnlyIoU, out.AlphaOnlyUp = results[4].AvgIoU, results[4].UpKbps
	return out, nil
}

// Render formats the extra ablations.
func (e *ExtraResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXTRA ABLATIONS (design choices beyond the paper's Table II, on UA-DETRAC).\n")
	fmt.Fprintf(&b, "  normalisation: BatchRenorm mAP %s%%  vs  plain BatchNorm mAP %s%%\n", pct(e.BRNMap), pct(e.BNMap))
	fmt.Fprintf(&b, "  replay policy: reservoir (Alg. 1) mAP %s%%  vs  FIFO mAP %s%%\n", pct(e.ReservoirMap), pct(e.FIFOMap))
	fmt.Fprintf(&b, "  controller:    full Eq.(2) IoU %.3f @ %.0f Kbps | φ-only IoU %.3f @ %.0f Kbps | α-only IoU %.3f @ %.0f Kbps\n",
		e.FullCtrlIoU, e.FullCtrlUp, e.PhiOnlyIoU, e.PhiOnlyUp, e.AlphaOnlyIoU, e.AlphaOnlyUp)
	return b.String()
}
