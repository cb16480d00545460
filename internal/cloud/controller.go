// Package cloud implements the cloud side of Shoggoth: the online labeler
// (the teacher model behind a V100-like latency model), the φ label-change
// metric, the sampling-rate controller of §III-C that adjusts each edge
// device's frame sampling rate from φ, α and λ, and the shared labeling
// Service — a scheduling engine with a pluggable policy (fifo,
// phi-priority, wfq, or anything registered via RegisterPolicy), a teacher
// worker pool, and a finite admission queue, multiplexed across registered
// edge devices (DESIGN.md §7–§8).
package cloud

import (
	"fmt"
	"math"

	"shoggoth/internal/tensor"
)

// ControllerConfig holds the Eq. (2)–(3) parameters. The JSON keys are a
// device's registration on a live cloud (internal/rpc).
type ControllerConfig struct {
	PhiTarget   float64 `json:"phi_target"`   // φ_target: desired label change rate per sample
	AlphaTarget float64 `json:"alpha_target"` // α_target: desired estimated accuracy
	EtaR        float64 `json:"eta_r"`        // ηr: φ step size
	EtaAlpha    float64 `json:"eta_alpha"`    // ηα: α step size
	RMin        float64 `json:"r_min"`        // paper: 0.1 fps
	RMax        float64 `json:"r_max"`        // paper: 2.0 fps
	InitialRate float64 `json:"initial_rate"`
}

// Validate rejects a controller the rate loop cannot run: every field must
// be finite and ≥ 0, and RMin ≤ RMax. The error names the field by its
// JSON key.
func (c ControllerConfig) Validate() error {
	for _, f := range []struct {
		key string
		v   float64
	}{
		{"phi_target", c.PhiTarget}, {"alpha_target", c.AlphaTarget}, {"eta_r", c.EtaR}, {"eta_alpha", c.EtaAlpha},
		{"r_min", c.RMin}, {"r_max", c.RMax}, {"initial_rate", c.InitialRate},
	} {
		if err := nonNegative("controller", f.key, f.v); err != nil {
			return err
		}
	}
	if c.RMin > c.RMax {
		return fmt.Errorf("cloud: controller r_min %g exceeds r_max %g", c.RMin, c.RMax)
	}
	return nil
}

// nonNegative is the rule for every cloud config parameter: finite and ≥ 0.
func nonNegative(config, key string, v float64) error {
	if !IsFinite(v) || v < 0 {
		return fmt.Errorf("cloud: %s %s %v: want a finite value ≥ 0", config, key, v)
	}
	return nil
}

// DefaultControllerConfig returns the calibrated controller parameters with
// the paper's rate bounds.
func DefaultControllerConfig() ControllerConfig {
	return ControllerConfig{
		PhiTarget:   0.95,
		AlphaTarget: 0.76,
		EtaR:        0.4,
		EtaAlpha:    6.0,
		RMin:        0.1,
		RMax:        2.0,
		InitialRate: 0.5,
	}
}

// Controller implements the sampling-rate controller:
//
//	r_{t+1} = [ R(φ) + R(α) + R(λ) ]^{rmax}_{rmin}
//	R(φ) = ηr·(φ̄_t − φ_target)
//	R(α) = ηα·max(0, α_target − α_t)
//	R(λ) = (1 + λ̄_{t+1} − λ̄_t)·r_t
//
// The formulas follow Eq. (3) verbatim, including the resource term's sign
// convention (a rising λ̄ scales the base rate up before clamping).
type Controller struct {
	Config ControllerConfig

	rate       float64
	lastLambda float64
	haveLambda bool
}

// NewController creates a controller at the configured initial rate.
func NewController(cfg ControllerConfig) *Controller {
	rate := cfg.InitialRate
	if rate == 0 {
		rate = cfg.RMin
	}
	return &Controller{Config: cfg, rate: tensor.Clamp(rate, cfg.RMin, cfg.RMax)}
}

// Rate returns the current sampling rate r_t.
func (c *Controller) Rate() float64 { return c.rate }

// Update consumes the period's mean φ̄, the estimated accuracy α since the
// last adaptive training, and the mean resource usage λ̄, returning r_{t+1}.
//
// Non-finite telemetry (NaN/±Inf from a misbehaving edge) is replaced by
// the neutral value of its term — φ̄ by φ_target, α by α_target, λ̄ by the
// previous λ̄ — so one bad report holds the rate instead of poisoning the
// controller state (a NaN stored in lastLambda would otherwise make every
// later rate NaN, pinned only by the clamp's behaviour on NaN).
func (c *Controller) Update(phiBar, alpha, lambdaBar float64) float64 {
	cfg := c.Config
	if !IsFinite(phiBar) {
		phiBar = cfg.PhiTarget
	}
	if !IsFinite(alpha) {
		alpha = cfg.AlphaTarget
	}
	rPhi := cfg.EtaR * (phiBar - cfg.PhiTarget)
	rAlpha := cfg.EtaAlpha * maxF(0, cfg.AlphaTarget-alpha)
	var rLambda float64
	switch {
	case !IsFinite(lambdaBar):
		// λ̄ unchanged from the last finite report: R(λ) = r_t. When no
		// finite report exists yet, the baseline stays unset too, so the
		// first real λ̄ still establishes it neutrally instead of being
		// measured against a fabricated λ̄ = 0.
		rLambda = c.rate
	default:
		prevLambda := c.lastLambda
		if !c.haveLambda {
			prevLambda = lambdaBar
			c.haveLambda = true
		}
		rLambda = (1 + lambdaBar - prevLambda) * c.rate
		c.lastLambda = lambdaBar
	}
	c.rate = tensor.Clamp(rPhi+rAlpha+rLambda, cfg.RMin, cfg.RMax)
	return c.rate
}

// IsFinite reports whether v is a usable telemetry value (neither NaN nor
// ±Inf) — shared by the controller's input clamp and the rpc boundary
// check so both apply the same predicate.
func IsFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
