// Package core ties every substrate together into the paper's system: the
// edge device running real-time inference and adaptive training, the cloud
// running online labeling and the sampling-rate controller, and the network
// between them — executed on a virtual clock. One System supports any
// registered Strategy (stock: Edge-Only, Cloud-Only, Prompt, AMS, Shoggoth)
// since they share the deployment substrate; see strategy.go for the
// registry and the per-strategy files for the stock behaviours.
package core

import (
	"fmt"

	"shoggoth/internal/cloud"
	"shoggoth/internal/detect"
	"shoggoth/internal/edge"
	"shoggoth/internal/netsim"
	"shoggoth/internal/nn"
	"shoggoth/internal/tensor"
	"shoggoth/internal/video"
)

// Fidelity selects how much of the deployment a run physically simulates.
type Fidelity string

const (
	// FidelityFull — the default (also the empty string) — runs the real
	// models: student inference, teacher labeling over rendered features,
	// SGD training. Every Results field is populated and the output is
	// bit-identical to the frozen golden captures.
	FidelityFull Fidelity = "full"
	// FidelityEvents is the fleet-scale fidelity: the edge compute model
	// (device load, sampler, codec, network, cloud queueing, controller and
	// session timing) runs exactly, but frames carry no feature tensors,
	// the student is never instantiated and training sessions are priced
	// without running SGD. Accuracy metrics (mAP, IoU) read zero; timing,
	// bandwidth, queueing and session counts remain faithful. Requires a
	// strategy with a student model (Cloud-Only's continuous 30 fps stream
	// is not represented in this fidelity).
	FidelityEvents Fidelity = "events"
	// FidelitySampled is the adaptive fleet fidelity: a seeded,
	// deterministic subset of a Cluster's devices (SampledFrac of them)
	// runs at full fidelity inside an otherwise events-fidelity fleet, and
	// ClusterResults extrapolates fleet accuracy aggregates from the
	// subset with a bootstrap error bound. It is a fleet-level concept:
	// the Cluster event engine rewrites each device to full or events
	// fidelity before any System is built, so a single-device run rejects
	// it.
	FidelitySampled Fidelity = "sampled"
)

// DefaultSampledFrac is the fraction of fleet devices run at full fidelity
// under FidelitySampled when Config.SampledFrac is zero.
const DefaultSampledFrac = 0.05

// Calibration no run varies.
const (
	// confThreshold is θ for the α accuracy estimate (paper: 0.5).
	confThreshold float64 = 0.5
	// windowSec is the bucketing window for per-window mAP (Figure 5).
	windowSec float64 = 10
	// trainRegionsPerFrame subsamples labeled regions per frame for SGD
	// (class-balanced hard-example selection; keeps region batches at the
	// paper's 300-sample scale).
	trainRegionsPerFrame int = 6
	// canonicalBatch/canonicalReplay are the virtual image counts fed to
	// the cost model: the paper's 300-image batches with 1500 replay
	// images, which define session durations (Table II).
	canonicalBatch  int = 300
	canonicalReplay int = 1500
	// amsCloudSpeedup is how much faster the V100 trains than the edge
	// board; amsQuantNoise is the relative weight noise of AMS's
	// compressed model updates.
	amsCloudSpeedup float64 = 40
	amsQuantNoise   float64 = 0.025
)

// Config fully describes one experiment run.
type Config struct {
	Kind        StrategyKind
	Profile     *video.Profile
	DurationSec float64
	Seed        uint64

	// Fidelity selects full-model simulation (default), the events-only
	// fleet fidelity, or the sampled hybrid; see the Fidelity constants.
	Fidelity Fidelity

	// SampledFrac is the fraction of the fleet run at full fidelity under
	// FidelitySampled. Zero means DefaultSampledFrac; otherwise it must lie
	// in (0, 1]. Ignored at other fidelities.
	SampledFrac float64
	// SampledSeed keys the deterministic device-subset draw of
	// FidelitySampled (stream-separated from every other RNG consumer; see
	// rng.go). Zero means the run Seed.
	SampledSeed uint64

	// DeviceID names this deployment on its cloud labeling service. Empty
	// is fine for a private (single-device) run; a Cluster requires unique
	// ids so per-device cloud state never aliases.
	DeviceID string

	// CloudQueueCap bounds the cloud labeling queue (batches in service
	// plus waiting); an arriving batch finding the queue full is dropped.
	// 0 means unbounded. Ignored when the run joins a shared cloud
	// service, whose own configuration wins.
	CloudQueueCap int

	// CloudPolicy names the cloud scheduling policy deciding which device's
	// batch the teacher labels next (registered in internal/cloud: "fifo",
	// "phi-priority", "wfq", plus anything added via RegisterPolicy). Empty
	// means FIFO, the frozen default. Ignored when the run joins a shared
	// cloud service, whose own configuration wins.
	CloudPolicy string
	// CloudWorkers is the cloud teacher pipeline pool size (how many
	// batches label concurrently in virtual time). 0 means 1, the frozen
	// default. Ignored when the run joins a shared cloud service.
	CloudWorkers int

	// CloudReplicas is how many teacher replicas the private cloud tier
	// owns. Values ≤ 1 mean one replica, the frozen default. Ignored when
	// the run joins a shared cloud service.
	CloudReplicas int
	// CloudRouter names the replica router dispatching batches across the
	// tier (registered in internal/cloud: "round-robin", "least-loaded",
	// "domain-affinity", plus anything added via RegisterRouter). Empty
	// means round-robin. Ignored when the run joins a shared cloud service.
	CloudRouter string
	// CloudAdmitRate enables token-bucket admission control in front of the
	// tier: sustained batches per virtual second, with CloudAdmitBurst
	// batches of headroom (0 burst means 1). 0 rate disables admission
	// control, the frozen default.
	CloudAdmitRate  float64
	CloudAdmitBurst float64
	// CloudCoalesce fuses up to this many compatible pending batches into
	// one priced teacher forward per dispatch (cross-device batching).
	// Values < 2 disable coalescing, the frozen default.
	CloudCoalesce int
	// CloudColdStartSec is the one-off teacher warmup cost the first batch
	// of a video domain pays on a replica that has never seen that domain.
	// 0 disables it, the frozen default.
	CloudColdStartSec float64

	// SLOClass names this device's service-level class for the cloud
	// tier's per-class latency/drop metrics. Empty means "standard".
	SLOClass string

	// ComputeTier selects the arithmetic tier the run's models execute on:
	// "" or "exact" is the frozen default (float64 op order bit-identical
	// to the golden captures); "fast" switches edge training to the blocked
	// fast-math kernels with parallel gradient accumulation
	// (tolerance-bounded on losses, byte-deterministic — see DESIGN.md
	// §13). The cloud labels the same way on either tier.
	ComputeTier string
	// ComputeLane selects the fast tier's arithmetic width: "" or
	// "float64" (default) or "float32". Ignored on the exact tier.
	ComputeLane string
	// ComputeAccumWorkers is how many workers execute the fast tier's
	// fixed gradient-accumulation shards (values ≤ 1 run them inline).
	// Results are byte-identical for every value; this knob trades cores
	// for wall-clock only.
	ComputeAccumWorkers int

	// SampleRate fixes the frame sampling rate (fps). 0 means adaptive
	// (the cloud controller drives it). Prompt uses the fixed maximum
	// rate (2 fps); Table III sweeps fixed rates.
	SampleRate float64

	Controller cloud.ControllerConfig
	Labeler    cloud.LabelerConfig
	Trainer    detect.TrainerConfig
	Device     edge.DeviceConfig
	Cost       edge.CostModel
	Uplink     netsim.Link
	Downlink   netsim.Link
	Codec      netsim.Codec

	// UplinkTrace/DownlinkTrace, when set, replace the constant Uplink and
	// Downlink links with time-varying network models (outage windows,
	// LTE-like fading, diurnal load — see internal/netsim). Nil means the
	// constant link, the frozen default: transfer times are then
	// bit-identical to the pre-trace scalar model. Traces must honour the
	// netsim determinism contract (pure functions of virtual time).
	UplinkTrace   netsim.Trace
	DownlinkTrace netsim.Trace

	// UplinkCell, when non-zero, places this device's uploads on a shared
	// cell-tower medium (1-based cell id): the cell's aggregate uplink rate
	// splits evenly across concurrent transfers, so a flush's delivery time
	// depends on who else is uploading. Only the fleet event engine models
	// shared media; 0 (the default) keeps the private per-device uplink.
	UplinkCell int

	// Pretrained, when set, is cloned as the deployed student instead of
	// pretraining from scratch (lets experiment harnesses pretrain once per
	// profile and hand every strategy the identical model).
	Pretrained *detect.Student

	// UploadFrames is the sample-buffer size flushed to the cloud in one
	// encoded batch.
	UploadFrames int
	// UploadMaxWaitSec flushes a partial buffer after this long, keeping
	// the control loop alive at very low sampling rates.
	UploadMaxWaitSec float64
	// BatchFrames is how many labeled sampled frames accumulate before an
	// adaptive-training session triggers.
	BatchFrames int

	// PerfClock, when set, is the timestamp source (monotonic seconds) the
	// workspace PerfCounters measure inference and training cost with.
	// Nil — the default and the only value sim/test code should use —
	// keeps the whole run free of machine-clock reads: the counters'
	// duration fields simply stay zero. Binaries that want real
	// throughput numbers inject shoggoth.WallClock(); the wallclock
	// analyzer forbids reading wall time anywhere else on the sim path.
	// Never part of Results, so it cannot perturb a run's outputs.
	PerfClock func() float64
}

// NewConfig returns the calibrated default configuration for a strategy on
// a profile, then applies the strategy's registered Preset (for example,
// Prompt pins the fixed maximum sampling rate).
func NewConfig(kind StrategyKind, p *video.Profile) Config {
	cfg := Config{
		Kind:             kind,
		Profile:          p,
		DurationSec:      2 * p.ScriptDuration(),
		Seed:             1,
		Controller:       cloud.DefaultControllerConfig(),
		Labeler:          cloud.DefaultLabelerConfig(),
		Trainer:          detect.DefaultTrainerConfig(),
		Device:           edge.DefaultDeviceConfig(),
		Cost:             edge.DefaultCostModel(),
		Uplink:           netsim.DefaultUplink(),
		Downlink:         netsim.DefaultDownlink(),
		Codec:            netsim.DefaultCodec(p.BaseFrameKB),
		UploadFrames:     20,
		UploadMaxWaitSec: 25,
		BatchFrames:      75,
	}
	if d, ok := Lookup(kind); ok && d.Preset != nil {
		d.Preset(&cfg)
	}
	return cfg
}

// Validate rejects inconsistent configurations.
func (c *Config) Validate() error {
	d, ok := Lookup(c.Kind)
	if !ok {
		return fmt.Errorf("core: unregistered strategy kind %d", int(c.Kind))
	}
	if c.Profile == nil {
		return fmt.Errorf("core: config needs a profile")
	}
	if err := c.Profile.Validate(); err != nil {
		return err
	}
	if c.DurationSec <= 0 {
		return fmt.Errorf("core: non-positive duration")
	}
	if d.Traits.Uploads {
		if c.UploadFrames <= 0 || c.BatchFrames <= 0 {
			return fmt.Errorf("core: upload/batch frame counts must be positive")
		}
	}
	if c.SampleRate < 0 {
		return fmt.Errorf("core: negative sample rate")
	}
	switch c.Fidelity {
	case "", FidelityFull:
	case FidelityEvents, FidelitySampled:
		if !d.Traits.Student {
			return fmt.Errorf("core: fidelity %q needs a strategy with an edge student model; %s streams continuously and has no events-fidelity equivalent", c.Fidelity, d.Name)
		}
		if c.Fidelity == FidelitySampled && (c.SampledFrac < 0 || c.SampledFrac > 1) {
			return fmt.Errorf("core: sampled fraction %v out of range (0, 1]", c.SampledFrac)
		}
	default:
		return fmt.Errorf("core: unknown fidelity %q (want %q, %q or %q)", c.Fidelity, FidelityFull, FidelityEvents, FidelitySampled)
	}
	if c.UplinkCell < 0 {
		return fmt.Errorf("core: negative uplink cell id %d", c.UplinkCell)
	}
	switch c.ComputeTier {
	case "", "exact", "fast":
	default:
		return fmt.Errorf("core: unknown compute tier %q (want exact or fast)", c.ComputeTier)
	}
	if _, err := tensor.ParseLane(c.ComputeLane); err != nil {
		return err
	}
	if c.ComputeAccumWorkers < 0 {
		return fmt.Errorf("core: negative accumulation worker count %d", c.ComputeAccumWorkers)
	}
	if err := cloud.ValidatePolicy(c.CloudPolicy); err != nil {
		return err
	}
	if c.CloudWorkers < 0 {
		return fmt.Errorf("core: negative cloud worker count")
	}
	if err := cloud.ValidateRouter(c.CloudRouter); err != nil {
		return err
	}
	if c.CloudReplicas < 0 {
		return fmt.Errorf("core: negative cloud replica count")
	}
	if c.CloudAdmitRate < 0 || c.CloudAdmitBurst < 0 {
		return fmt.Errorf("core: negative cloud admission rate/burst")
	}
	if c.CloudCoalesce < 0 {
		return fmt.Errorf("core: negative cloud coalesce bound")
	}
	if c.CloudColdStartSec < 0 {
		return fmt.Errorf("core: negative cloud cold-start penalty")
	}
	if err := c.validateLink("uplink", c.Uplink, c.UplinkTrace); err != nil {
		return err
	}
	if err := c.validateLink("downlink", c.Downlink, c.DownlinkTrace); err != nil {
		return err
	}
	return nil
}

// validateLink rejects a dead constant link: Link.TransferSeconds treats a
// non-positive bandwidth as infinitely fast (a documented test-only escape
// hatch), so a misconfigured deployment would silently get a perfect
// network instead of a broken one. With a trace installed the constant link
// fields are unused (trace constructors enforce their own positivity).
func (c *Config) validateLink(dir string, l netsim.Link, trace netsim.Trace) error {
	if trace != nil {
		return nil
	}
	if l.BandwidthBps <= 0 {
		return fmt.Errorf("core: non-positive %s bandwidth %g bps (a dead link must not become a free one; set a positive rate or install a trace)", dir, l.BandwidthBps)
	}
	if l.LatencySec < 0 {
		return fmt.Errorf("core: negative %s latency %g s", dir, l.LatencySec)
	}
	return nil
}

// Compute resolves the compute-tier knobs into the kernel descriptor
// trainers and students run on. Only meaningful after Validate; an invalid
// lane falls back to float64 here (Validate already rejected it).
func (c *Config) Compute() nn.Compute {
	if c.ComputeTier != "fast" {
		return nn.Compute{}
	}
	lane, _ := tensor.ParseLane(c.ComputeLane)
	return nn.Compute{Fast: true, Lane: lane}
}

// CloudTierConfig assembles the cloud.TierConfig this config's knobs
// describe (shared by the private-run path and Cluster's scenario
// inheritance).
func (c *Config) CloudTierConfig() cloud.TierConfig {
	return cloud.TierConfig{
		Replicas: c.CloudReplicas,
		Router:   c.CloudRouter,
		Service: cloud.ServiceConfig{
			QueueCap: c.CloudQueueCap,
			Policy:   c.CloudPolicy,
			Workers:  c.CloudWorkers,
			Coalesce: c.CloudCoalesce,
		},
		AdmitRatePerSec: c.CloudAdmitRate,
		AdmitBurst:      c.CloudAdmitBurst,
		ColdStartSec:    c.CloudColdStartSec,
	}
}

// uplink returns the effective uplink network model.
func (c *Config) uplink() netsim.Trace {
	if c.UplinkTrace != nil {
		return c.UplinkTrace
	}
	return c.Uplink
}

// downlink returns the effective downlink network model.
func (c *Config) downlink() netsim.Trace {
	if c.DownlinkTrace != nil {
		return c.DownlinkTrace
	}
	return c.Downlink
}

// UplinkTransfer returns the uplink delivery time of a message sent at
// virtual time now (time-varying under a trace; constant otherwise).
func (c *Config) UplinkTransfer(bytes int, now float64) float64 {
	return netsim.TransferSeconds(c.uplink(), bytes, now)
}

// DownlinkTransfer returns the downlink delivery time of a message sent at
// virtual time now.
func (c *Config) DownlinkTransfer(bytes int, now float64) float64 {
	return netsim.TransferSeconds(c.downlink(), bytes, now)
}
