// Package edge models the resource-constrained edge device (a Jetson
// TX2-class board): a compute budget shared by real-time inference, H.264
// encoding of sample buffers, and adaptive-training sessions; an FPS tracker
// (Figure 4); a λ resource monitor (§III-C); the frame sampler; and the
// virtual cost model that reproduces Table II's training times.
package edge

import (
	"shoggoth/internal/detect"
	"shoggoth/internal/nn"
)

// CostModel assigns virtual wall-clock costs (seconds on the TX2-class
// device) to training work. Costs are expressed for the *virtual*
// YOLOv4+ResNet18 student the tiny in-process network stands in for; the
// constants are fitted to Table II's baseline row (17.8 s forward / 0.8 s
// backward for batch 300 + 1500 replay × 8 epochs at mini-batch 64).
type CostModel struct {
	// FullForwardSec is a full-network forward pass per image.
	FullForwardSec float64
	// PoolHeadSec is the per-image forward cost of the post-pool head
	// (replay at the penultimate layer: almost everything is cached).
	PoolHeadSec float64
	// Conv54HeadSec is the per-image forward cost from conv5_4 to the output.
	Conv54HeadSec float64
	// UpdateSecPerMParamStep is the weight-update cost per million trainable
	// parameters per optimizer step (the Table II "backward" column tracks
	// update cost, which scales with trainable parameters × steps).
	UpdateSecPerMParamStep float64
	// Parameter counts (millions) of the virtual student's segments.
	FullParamsM       float64
	PoolHeadParamsM   float64
	Conv54HeadParamsM float64
}

// DefaultCostModel returns constants fitted to Table II (see DESIGN.md §2).
func DefaultCostModel() CostModel {
	return CostModel{
		FullForwardSec:         0.0551,
		PoolHeadSec:            9.0e-5,
		Conv54HeadSec:          2.6e-4,
		UpdateSecPerMParamStep: 3.56e-3,
		FullParamsM:            30,
		PoolHeadParamsM:        1.0,
		Conv54HeadParamsM:      6.5,
	}
}

// SessionCost is the virtual timing of one adaptive-training session.
type SessionCost struct {
	ForwardSec  float64
	BackwardSec float64
}

// TotalSec returns the session wall-clock duration.
func (c SessionCost) TotalSec() float64 { return c.ForwardSec + c.BackwardSec }

// Scaled returns the cost divided by a step-rate multiplier (1 is a no-op).
// Events fidelity uses it to price a session on the configured compute tier.
func (c SessionCost) Scaled(speedup float64) SessionCost {
	if speedup <= 0 || speedup == 1 {
		return c
	}
	return SessionCost{ForwardSec: c.ForwardSec / speedup, BackwardSec: c.BackwardSec / speedup}
}

// Whole-step training costs of the two compute tiers as once measured on
// the reference machine (go1.24 linux/amd64, Intel Xeon @ 2.10GHz,
// AVX2+FMA); the repo benchmark measures the same steps today as
// detect.train_step_exact_ns and detect.train_step_fast_ns (BENCHMARK.json).
// Their ratio is the only thing the cost model consumes, so drift in
// absolute machine speed cancels. The values are frozen: they price
// events-fidelity training sessions, so changing either moves result bytes.
const (
	ExactStepNs = 82021.6
	FastStepNs  = 38055.3
)

// TierSpeedup returns the modeled step-rate multiplier of the configured
// compute tier over the exact tier: 1 for exact, the measured exact/fast
// step-cost ratio (≈2.16) for the fast tier. Events fidelity scales priced
// training sessions by this factor so the deployed tier shows up in fleet
// economics without executing a single step.
func TierSpeedup(c nn.Compute) float64 {
	if c.Fast {
		return ExactStepNs / FastStepNs
	}
	return 1
}

// Session computes the virtual duration of a training session.
//
//   - nNew fresh samples, nReplay replay activations, epochs passes,
//     mini-batch size k;
//   - placement/noReplay select the Table II variant;
//   - firstSession trains the front layers too (the paper freezes only
//     after the first batch).
//
// Cost rules (derivation in DESIGN.md):
//
//	frozen front  : forward = nNew·front + epochs·(nNew+nReplay)·head
//	trainable front: forward = epochs·nNew·front + epochs·(nNew+nReplay)·head
//	input replay  : forward = epochs·(nNew+nReplay)·full
//	no replay     : forward = epochs·nNew·full
//	backward      = UpdateSecPerMParamStep · trainableParamsM · steps
func (m CostModel) Session(cfg detect.TrainerConfig, firstSession bool, nNew, nReplay int) SessionCost {
	if nNew == 0 {
		return SessionCost{}
	}
	epochs := float64(cfg.Epochs)
	total := float64(nNew + nReplay)
	k := float64(cfg.MiniBatch)
	if k <= 0 {
		k = 1
	}
	// Steps per session: each epoch walks the new batch in chunks whose size
	// keeps the constant new:replay proportion, so steps ≈ epochs·total/k.
	steps := epochs * total / k

	var fwd, params float64
	switch {
	case cfg.NoReplay:
		fwd = epochs * float64(nNew) * m.FullForwardSec
		params = m.FullParamsM
		steps = epochs * float64(nNew) / k
	case cfg.Placement == detect.PlacementInput:
		fwd = epochs * total * m.FullForwardSec
		params = m.FullParamsM
	case cfg.Placement == detect.PlacementConv54:
		front := m.FullForwardSec - m.Conv54HeadSec
		if firstSession && !cfg.CompletelyFrozen {
			fwd = epochs*float64(nNew)*front + epochs*total*m.Conv54HeadSec
			params = m.FullParamsM
		} else {
			fwd = float64(nNew)*front + epochs*total*m.Conv54HeadSec
			params = m.Conv54HeadParamsM
		}
	default: // PlacementPool, the paper's baseline
		front := m.FullForwardSec - m.PoolHeadSec
		if firstSession && !cfg.CompletelyFrozen {
			fwd = epochs*float64(nNew)*front + epochs*total*m.PoolHeadSec
			params = m.FullParamsM
		} else {
			fwd = float64(nNew)*front + epochs*total*m.PoolHeadSec
			params = m.PoolHeadParamsM
		}
	}
	return SessionCost{
		ForwardSec:  fwd,
		BackwardSec: m.UpdateSecPerMParamStep * params * steps,
	}
}
