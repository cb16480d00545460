// Package shoggoth is a from-scratch Go reproduction of "Shoggoth: Towards
// Efficient Edge-Cloud Collaborative Real-Time Video Inference via Adaptive
// Online Learning" (DAC 2023).
//
// It simulates the full system of the paper — a lightweight student detector
// on a resource-constrained edge device, a golden teacher model in the
// cloud, decoupled knowledge distillation (cloud labels, edge trains),
// latent-replay adaptive training and the adaptive frame-sampling
// controller — over synthetic drifting video streams standing in for
// UA-DETRAC, KITTI and Waymo. Student training is real SGD on a small
// neural network, so data drift, catastrophic forgetting and replay
// benefits emerge from optimisation dynamics rather than being scripted.
//
// Quick start:
//
//	profile, _ := shoggoth.ProfileByName(shoggoth.ProfileDETRAC)
//	cfg := shoggoth.NewConfig(shoggoth.Shoggoth, profile)
//	cfg.DurationSec = 720
//	results, err := shoggoth.Run(cfg)
//
// Beyond the blocking Run there is a streaming Session (frame-stepped, with
// Observer hooks and context cancellation), a Fleet that runs many
// (profile, strategy, seed) sessions on a bounded worker pool, a Cluster
// that steps N devices against one shared cloud, and registries for
// strategies (RegisterStrategy), cloud scheduling policies, dataset
// profiles and scenarios — composed worlds of workload variants and
// time-varying network traces (ScenarioByName, LoadScenarioFile,
// ScenarioConfigs). See DESIGN.md for the system inventory and the
// Strategy/Session/Fleet API; cmd/shoggoth-bench regenerates the
// paper-vs-measured record of every table and figure.
package shoggoth

import (
	"time"

	"shoggoth/internal/cloud"
	"shoggoth/internal/core"
	"shoggoth/internal/detect"
	"shoggoth/internal/metrics"
	"shoggoth/internal/strategy"
	"shoggoth/internal/video"
)

// Strategy kinds (Table I columns).
const (
	EdgeOnly  = core.EdgeOnly
	CloudOnly = core.CloudOnly
	Prompt    = core.Prompt
	AMS       = core.AMS
	Shoggoth  = core.Shoggoth
)

// Fidelity selects how much of the system a run simulates. FidelityFull
// (the default, also the zero value "") runs real student SGD and
// materializes every frame — the golden-results path. FidelityEvents is
// the fleet-scale mode: frames are materialized sparsely (only when
// sampled for upload), no student network is deployed and training is
// priced but not executed, so a Cluster can carry 100k devices through the
// event engine. FidelitySampled is the adaptive middle ground: a seeded
// deterministic fraction of a Cluster's devices runs full fidelity inside
// an events-fidelity fleet, and ClusterResults.Sampled extrapolates the
// fleet's accuracy aggregates with a bootstrap error bound. Results of
// different fidelities are not comparable.
type Fidelity = core.Fidelity

// Simulation fidelities (Config.Fidelity).
const (
	FidelityFull    = core.FidelityFull
	FidelityEvents  = core.FidelityEvents
	FidelitySampled = core.FidelitySampled
)

// Stock dataset profile names.
const (
	ProfileDETRAC = video.ProfileDETRAC
	ProfileKITTI  = video.ProfileKITTI
	ProfileWaymo  = video.ProfileWaymo
)

// Re-exported types of the public API.
type (
	// StrategyKind selects one registered strategy (stock: the five
	// evaluated in the paper).
	StrategyKind = core.StrategyKind
	// Config fully describes one experiment run.
	Config = core.Config
	// Results aggregates everything a run reports.
	Results = core.Results
	// Profile is a dataset-like workload definition.
	Profile = video.Profile
	// Option mutates a Config preset.
	Option = strategy.Option
	// CloudTier describes a cloud labeling tier: replicas, router,
	// admission control, cold-start pricing and each replica's service.
	// A run carries it as Config.Cloud and a scenario as Scenario.Cloud.
	CloudTier = cloud.TierConfig
	// CloudService describes one replica of a tier: queue bound,
	// scheduling policy, worker pool and cross-device coalescing.
	CloudService = cloud.ServiceConfig

	// Strategy is the pluggable per-run behaviour dispatched by the
	// deployment loop; implement it and RegisterStrategy to add a sixth
	// (seventh, …) strategy with zero core edits.
	Strategy = core.Strategy
	// BaseStrategy is an embeddable no-op Strategy hook set.
	BaseStrategy = core.BaseStrategy
	// StrategyInfo registers one strategy: name, aliases, traits, factory.
	StrategyInfo = core.Descriptor
	// Traits declare the substrate behaviour around a strategy's hooks.
	Traits = core.Traits
	// System is one running deployment, handed to Strategy.Init.
	System = core.System
	// Frame is one camera frame of a drifting stream.
	Frame = video.Frame
	// TeacherLabel is one cloud-labeled region (Strategy.OnCloudBatch).
	TeacherLabel = detect.TeacherLabel
	// LabeledRegion is one training sample (Strategy.OnTrainDue).
	LabeledRegion = detect.LabeledRegion

	// PerfCounters are the per-session workspace counters: wall-clock
	// inference and training throughput, diagnostics-only (never part of
	// Results). Read them from Session.System().Workspace().Perf, or
	// aggregate across a Fleet via Fleet.Perf.
	PerfCounters = detect.PerfCounters

	// SessionRecord logs one adaptive-training session.
	SessionRecord = core.SessionRecord
	// RatePoint is one sampling-rate command over time.
	RatePoint = core.RatePoint
	// WindowScore is the mAP of one time window.
	WindowScore = metrics.WindowScore
)

// ProfileByName returns a stock dataset profile (ProfileDETRAC,
// ProfileKITTI or ProfileWaymo).
func ProfileByName(name string) (*Profile, error) { return video.ProfileByName(name) }

// Profiles returns the three stock dataset profiles in paper order.
func Profiles() []*Profile { return video.StockProfiles() }

// StrategyKinds returns every registered strategy in registration order
// (the paper's column order for the stock five).
func StrategyKinds() []StrategyKind { return core.StrategyKinds() }

// ParseStrategy resolves a strategy name such as "shoggoth" or "edge-only"
// (case-insensitive, including registered aliases).
func ParseStrategy(name string) (StrategyKind, error) { return core.ParseStrategy(name) }

// RegisterStrategy adds a strategy to the registry and returns its assigned
// kind; registered strategies configure, parse and run exactly like the
// stock five.
func RegisterStrategy(info StrategyInfo) (StrategyKind, error) { return core.Register(info) }

// NewConfig returns the calibrated default configuration for a strategy on
// a profile.
func NewConfig(kind StrategyKind, p *Profile, opts ...Option) Config {
	return strategy.Configure(kind, p, opts...)
}

// Run executes one experiment to completion. It is a thin wrapper over a
// Session and returns identical Results for the same Config.
func Run(cfg Config) (*Results, error) {
	sess, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	for sess.Step() {
	}
	return sess.Results(), nil
}

// WallClock returns a monotonic wall-time reader for Config.PerfClock: the
// one sanctioned way for a binary to give PerfCounters real timestamps.
// Library and sim code must never call it — leave PerfClock nil there, so
// runs stay free of machine-clock reads (the wallclock analyzer enforces
// this; the directive below is the single justified exception).
//
//shoggoth:allow wallclock -- the one sanctioned wall-time provider; only cmd/ binaries inject it, sim code leaves PerfClock nil
func WallClock() func() float64 {
	epoch := time.Now()
	return func() float64 { return time.Since(epoch).Seconds() }
}

// Options for NewConfig.
var (
	// WithDuration overrides the stream duration in seconds.
	WithDuration = strategy.WithDuration
	// WithSeed overrides the run seed.
	WithSeed = strategy.WithSeed
	// WithFixedRate pins the sampling rate, disabling the controller.
	WithFixedRate = strategy.WithFixedRate
	// WithCycles sets the duration in scenario-script passes.
	WithCycles = strategy.WithCycles
	// WithFidelity selects the simulation fidelity (FidelityFull,
	// FidelityEvents or FidelitySampled).
	WithFidelity = strategy.WithFidelity
	// WithSampledFidelity selects sampled fidelity with an explicit device
	// fraction and subset seed (0 seed: the run seed stands in).
	WithSampledFidelity = strategy.WithSampledFidelity
	// WithComputeTier selects the arithmetic tier ("exact" or "fast").
	WithComputeTier = strategy.WithComputeTier
	// WithAccumWorkers sets the fast tier's accumulation worker count.
	WithAccumWorkers = strategy.WithAccumWorkers
)
