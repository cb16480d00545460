package shoggoth

import (
	"context"
	"fmt"

	"shoggoth/internal/cloud"
	"shoggoth/internal/core"
	"shoggoth/internal/netsim"
	"shoggoth/internal/sim"
)

// CloudStats summarises the shared cloud tier's behaviour: batches served
// and dropped, queueing delay, teacher busy time, plus the tier-level
// routing detail — per-replica queue statistics, admission-control
// rejections, coalesced teacher forwards, per-SLO-class label latency and
// the Jain fairness index across devices. A 1-replica tier reports the
// same embedded aggregate a bare service used to.
type CloudStats = cloud.TierStats

// EngineInfo reports the event engine's aggregate work. Both counters are
// part of the determinism contract: they are invariant across
// Cluster.EngineWorkers values, so a run that merely re-shards differently
// still reports identical ClusterResults bytes.
type EngineInfo struct {
	// Events is the total number of discrete events executed: device frames,
	// device-local queue events and shared-timeline events combined. It is a
	// property of the simulated fleet.
	Events int64 `json:"events"`
	// Epochs is the number of engine iterations (parallel device batches
	// plus serial shared phases). It is a property of the engine, not of the
	// fleet: how often devices had to be woken for the same events depends
	// on how tight their wake times are, so it is comparable only between
	// runs of one commit.
	Epochs int64 `json:"epochs"`
}

// EnginePhases is a wall-clock breakdown of where an event-engine run spent
// its time: advancing device shards, merging their outboxes into the shared
// heap, and executing the serial shared phase. Diagnostics only — filled
// from Config.PerfClock when Cluster.Phases is set, never part of the
// deterministic results.
type EnginePhases struct {
	AdvanceSec float64 `json:"advance_sec"`
	MergeSec   float64 `json:"merge_sec"`
	SerialSec  float64 `json:"serial_sec"`
}

// ClusterResults aggregates an N-device shared-cloud run: one Results per
// device (in device order, each carrying its own queue-delay metrics), the
// streaming fleet-wide aggregate, plus the service-wide queue statistics.
type ClusterResults struct {
	// Devices holds per-device results in device order; nil when the run
	// used Cluster.AggregateOnly (the memory-sane mode at 1M devices).
	Devices []*Results `json:"devices,omitempty"`
	// Fleet is the single-pass Welford aggregate over every device, folded
	// in device-index order as devices finish — O(1) state per metric, no
	// per-device intermediate slices however large the fleet.
	Fleet *FleetAggregate `json:"fleet,omitempty"`
	// Sampled carries the sampled-fidelity estimator (subset accuracy
	// extrapolated to the fleet with a bootstrap error bound); nil unless
	// the run used core.FidelitySampled.
	Sampled *SampledStats `json:"sampled,omitempty"`
	Cloud   CloudStats    `json:"cloud"`
	// Engine carries event-engine telemetry.
	Engine *EngineInfo `json:"engine,omitempty"`
}

// Utilization returns the teacher's offered load: busy seconds over the
// played duration (0 for an empty run). Values above 1 are meaningful —
// service admitted near the end runs past the horizon, so >100% says the
// cluster offered more labeling work than one teacher could absorb and a
// backlog remained when the run ended.
func (r *ClusterResults) Utilization() float64 {
	var end float64
	if r.Fleet != nil {
		end = r.Fleet.DurationSec
	}
	for _, d := range r.Devices {
		if d.Duration > end {
			end = d.Duration
		}
	}
	if end <= 0 {
		return 0
	}
	return r.Cloud.BusySeconds / end
}

// Cluster runs N edge deployments against ONE shared cloud labeling
// service inside a single virtual-time scheduler — the paper's setting of
// a fleet of cameras multiplexed onto one teacher. Devices genuinely
// contend: every uploaded batch serialises on the shared teacher pipeline,
// so queueing delay shows up in label latency and each device's rate
// commands reflect cluster load, not just its own stream.
//
// Where a Fleet runs independent sessions concurrently (isolated clouds,
// wall-clock parallelism), a Cluster runs coupled sessions on one clock;
// with a single device it reproduces a Session bit for bit. The zero value
// is ready to use.
//
// The core is a discrete-event engine: devices post their next
// interesting times to an indexed min-heap (an events-fidelity device, the
// first frame that could upload) and fast-forward between shared events,
// optionally sharded across EngineWorkers goroutines. Results are
// byte-identical at every worker count — cross-device effects funnel
// through per-device outboxes merged serially in device-index order — and
// identical to the frame stepper the tests keep as a differential oracle
// (framestep_test.go) on the configurations both support. See DESIGN.md
// §11 for the ordering contract.
type Cluster struct {
	// QueueCap bounds the shared labeling queue (batches in service plus
	// waiting); an arriving batch finding it full is dropped. 0 means
	// unbounded.
	QueueCap int
	// Policy names the shared service's scheduling policy — which device's
	// batch the teacher labels next ("fifo", "phi-priority", "wfq", or any
	// policy registered via cloud.RegisterPolicy). Empty means FIFO, the
	// frozen default that serves in arrival order.
	Policy string
	// Workers is the teacher pipeline pool size of each replica: how many
	// batches a replica labels concurrently in virtual time. 0 means 1.
	Workers int
	// Replicas is the number of teacher replicas in the shared cloud tier.
	// 0 or 1 means a single replica — behaviourally the classic one-service
	// cloud.
	Replicas int
	// Router names the replica router dispatching uploaded batches across
	// the tier ("round-robin", "least-loaded", "domain-affinity", or any
	// router registered via cloud.RegisterRouter). Empty means round-robin,
	// the frozen default.
	Router string
	// AdmitRate, when positive, enables token-bucket admission control in
	// front of the tier: the sustained batch admission rate per virtual
	// second. Rejected batches are dropped (and counted) before routing.
	AdmitRate float64
	// AdmitBurst is the token bucket's burst capacity in batches (values
	// below 1 are clamped to 1). Meaningful only with AdmitRate > 0.
	AdmitBurst float64
	// Coalesce, when >= 2, lets each replica coalesce up to this many
	// compatible pending batches into one priced teacher forward
	// (cross-device teacher batching).
	Coalesce int
	// ColdStartSec prices the first batch of a video domain on each replica
	// (domain-affinity's cold-start penalty). 0 disables it.
	ColdStartSec float64
	// EngineWorkers shards the event engine's device batches across a
	// goroutine pool. Purely a wall-clock knob: any value — including 0,
	// meaning 1 — produces byte-identical ClusterResults.
	EngineWorkers int
	// Cache, when set, shares pretrained students with other runners; nil
	// uses a cluster-private cache.
	Cache *StudentCache
	// Perf, when set, accumulates every device's workspace counters
	// (wall-clock inference and training throughput) after the run —
	// diagnostics only, never part of Results.
	Perf *PerfCounters
	// AggregateOnly drops the per-device Results slice from ClusterResults,
	// leaving the streaming Fleet aggregate (plus cloud/engine blocks). At
	// 1M devices a million Results structs and their JSON dwarf the
	// reduction they feed; this is the memory-sane mode at that scale.
	AggregateOnly bool
	// Phases, when set, receives the event engine's wall-clock phase
	// breakdown after the run, timed with the devices' Config.PerfClock
	// (the sanctioned injected wall clock). Diagnostics only.
	Phases *EnginePhases

	own StudentCache
}

// Run steps every device's stream to completion against the shared cloud
// and returns per-device plus aggregate results. Each config is one device;
// empty DeviceIDs default to "edge-<i+1>". All devices must share one
// DurationSec: the cluster has a single virtual timeline, and a device
// leaving it early would still see cloud/training events executed past its
// own end while the others play on. Runs are deterministic: a fixed config
// list (seeds included) yields identical ClusterResults.
func (c *Cluster) Run(ctx context.Context, cfgs []Config) (*ClusterResults, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("shoggoth: cluster needs at least one device config")
	}
	for i := range cfgs {
		if cfgs[i].DurationSec != cfgs[0].DurationSec {
			return nil, fmt.Errorf("shoggoth: cluster devices must share one duration: device %d has %gs, device 0 has %gs",
				i, cfgs[i].DurationSec, cfgs[0].DurationSec)
		}
	}
	if err := cloud.ValidatePolicy(c.Policy); err != nil {
		return nil, err
	}
	if err := cloud.ValidateRouter(c.Router); err != nil {
		return nil, err
	}
	if c.Workers < 0 {
		return nil, fmt.Errorf("shoggoth: negative cluster worker count %d", c.Workers)
	}
	if c.Replicas < 0 {
		return nil, fmt.Errorf("shoggoth: negative cluster replica count %d", c.Replicas)
	}
	if c.AdmitRate < 0 || c.AdmitBurst < 0 {
		return nil, fmt.Errorf("shoggoth: negative cluster admission rate/burst (%g, %g)", c.AdmitRate, c.AdmitBurst)
	}
	if c.Coalesce < 0 {
		return nil, fmt.Errorf("shoggoth: negative cluster coalesce bound %d", c.Coalesce)
	}
	if c.ColdStartSec < 0 {
		return nil, fmt.Errorf("shoggoth: negative cluster cold-start penalty %g", c.ColdStartSec)
	}
	if c.EngineWorkers < 0 {
		return nil, fmt.Errorf("shoggoth: negative engine worker count %d", c.EngineWorkers)
	}
	cache := c.Cache
	if cache == nil {
		cache = &c.own
	}
	return c.runEvents(ctx, cfgs, cache)
}

// tierConfig assembles the shared cloud tier's configuration. When every
// cluster-level cloud knob is zero the first device config speaks for the
// fleet (scenario files stamp cloud specs into each device config), which
// keeps a 1-device Cluster bit-identical to a Session of the same config.
// Any explicitly-set cluster knob switches to the cluster fields wholesale.
func (c *Cluster) tierConfig(cfgs []Config) cloud.TierConfig {
	if c.QueueCap == 0 && c.Policy == "" && c.Workers == 0 && c.Replicas == 0 &&
		c.Router == "" && c.AdmitRate == 0 && c.AdmitBurst == 0 && c.Coalesce == 0 && c.ColdStartSec == 0 {
		return cfgs[0].CloudTierConfig()
	}
	return cloud.TierConfig{
		Replicas:        c.Replicas,
		Router:          c.Router,
		Service:         cloud.ServiceConfig{QueueCap: c.QueueCap, Policy: c.Policy, Workers: c.Workers, Coalesce: c.Coalesce},
		AdmitRatePerSec: c.AdmitRate,
		AdmitBurst:      c.AdmitBurst,
		ColdStartSec:    c.ColdStartSec,
	}
}

// cellUplink routes one device's uploads through its cell's shared medium.
// Send runs on the device's shard, so it must not touch the medium
// directly: it posts the join to the device outbox, and the engine's
// serial merge — the only place shared state may change — executes it.
type cellUplink struct {
	medium *netsim.SharedMedium
	out    *sim.Outbox
}

func (u *cellUplink) Send(bytes int, start float64, deliver func(now float64)) {
	u.out.At(start, func(now float64) { u.medium.Join(bytes, now, deliver) })
}

// runEvents is the discrete-event core: one shared scheduler for the cloud
// service, uplink arrivals and cell media; one private scheduler plus
// outbox per device; the sim.Engine interleaving them under the global
// (time, device index, seq) order.
func (c *Cluster) runEvents(ctx context.Context, cfgs []Config, cache *StudentCache) (*ClusterResults, error) {
	sampled, chosen, frac, sampleSeed, err := resolveSampled(cfgs)
	if err != nil {
		return nil, err
	}
	if sampled {
		// Rewrite a private copy: the chosen subset runs full fidelity
		// inside the events-fidelity fleet, and the caller's configs stay
		// untouched.
		cfgs = append([]Config(nil), cfgs...)
		for i := range cfgs {
			if chosen[i] {
				cfgs[i].Fidelity = core.FidelityFull
			} else {
				cfgs[i].Fidelity = core.FidelityEvents
			}
		}
	}

	shared := sim.NewScheduler()
	tier := cloud.NewTier(c.tierConfig(cfgs))
	tier.Bind(shared)
	eng := sim.NewEngine(shared, c.EngineWorkers)
	if c.Phases != nil && cfgs[0].PerfClock != nil {
		eng.SetClock(cfgs[0].PerfClock)
	}

	mediums := make(map[int]*netsim.SharedMedium)
	systems := make([]*core.System, len(cfgs))
	locals := make([]*sim.Scheduler, len(cfgs))
	for i, cfg := range cfgs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if cfg.DeviceID == "" {
			cfg.DeviceID = fmt.Sprintf("edge-%d", i+1)
		}
		if cfg.Fidelity != core.FidelityEvents {
			// Events fidelity deploys no student, so skip the (cached but
			// still seconds-per-profile) pretraining entirely.
			defaultPretrained(&cfg, cache)
		}
		local := sim.NewScheduler()
		out := &sim.Outbox{}
		var uplink core.UplinkSender
		if cfg.UplinkCell > 0 {
			m := mediums[cfg.UplinkCell]
			if m == nil {
				// The cell's aggregate rate is its first member's uplink
				// trace (scenario.Configs gives every member the same one).
				var tr netsim.Trace = cfg.Uplink
				if cfg.UplinkTrace != nil {
					tr = cfg.UplinkTrace
				}
				m = netsim.NewSharedMedium(tr, shared)
				mediums[cfg.UplinkCell] = m
			}
			uplink = &cellUplink{medium: m, out: out}
		}
		sys, err := core.NewSystemOpts(cfg, core.SystemOptions{Scheduler: local, Cloud: tier, Shared: out, Uplink: uplink})
		if err != nil {
			return nil, fmt.Errorf("shoggoth: cluster device %d: %w", i, err)
		}
		systems[i], locals[i] = sys, local
		idx := eng.Add(sys, out)
		local.SetWaker(func() { eng.MarkDirty(idx) })
	}

	if err := eng.Run(ctx, cfgs[0].DurationSec); err != nil {
		return nil, err
	}

	out := &ClusterResults{}
	if !c.AggregateOnly {
		out.Devices = make([]*Results, len(systems))
	}
	info := &EngineInfo{Epochs: eng.Epochs()}
	var fold fleetFold
	var sampMap50, sampIoU []float64
	if sampled {
		k := countTrue(chosen)
		sampMap50 = make([]float64, 0, k)
		sampIoU = make([]float64, 0, k)
	}
	for i, sys := range systems {
		r := sys.Finish()
		if out.Devices != nil {
			out.Devices[i] = r
		}
		if c.Perf != nil {
			c.Perf.Add(sys.Workspace().Perf)
		}
		fold.add(r, cfgs[i].Fidelity != core.FidelityEvents)
		if sampled && chosen[i] {
			sampMap50 = append(sampMap50, r.MAP50)
			sampIoU = append(sampIoU, r.AvgIoU)
		}
		info.Events += locals[i].Executed() + int64(r.FramesTotal)
	}
	info.Events += shared.Executed()
	out.Engine = info
	out.Fleet = fold.aggregate()
	out.Cloud = tier.TierStats()
	if sampled {
		out.Sampled = newSampledStats(frac, sampleSeed, len(cfgs), sampMap50, sampIoU)
	}
	if c.Phases != nil {
		a, m, s := eng.PhaseSeconds()
		*c.Phases = EnginePhases{AdvanceSec: a, MergeSec: m, SerialSec: s}
	}
	return out, nil
}

// resolveSampled detects core.FidelitySampled across a fleet's configs and,
// if present, validates its fleet-wide invariants and draws the seeded
// full-fidelity subset. Sampled fidelity is a fleet-level mode: every
// device must carry it with one agreed (frac, seed) pair, because the
// subset draw is a single decision over the whole device index space.
func resolveSampled(cfgs []Config) (sampled bool, chosen []bool, frac float64, seed uint64, err error) {
	for i := range cfgs {
		if cfgs[i].Fidelity == core.FidelitySampled {
			sampled = true
			break
		}
	}
	if !sampled {
		return false, nil, 0, 0, nil
	}
	for i := range cfgs {
		if cfgs[i].Fidelity != core.FidelitySampled {
			return false, nil, 0, 0, fmt.Errorf("shoggoth: sampled fidelity is fleet-wide: device %d has fidelity %q, want %q on every device",
				i, cfgs[i].Fidelity, core.FidelitySampled)
		}
		if cfgs[i].SampledFrac != cfgs[0].SampledFrac || cfgs[i].SampledSeed != cfgs[0].SampledSeed {
			return false, nil, 0, 0, fmt.Errorf("shoggoth: sampled fidelity needs one fleet-wide (frac, seed): device %d has (%g, %d), device 0 has (%g, %d)",
				i, cfgs[i].SampledFrac, cfgs[i].SampledSeed, cfgs[0].SampledFrac, cfgs[0].SampledSeed)
		}
	}
	frac = cfgs[0].SampledFrac
	if frac == 0 {
		frac = core.DefaultSampledFrac
	}
	if frac < 0 || frac > 1 {
		return false, nil, 0, 0, fmt.Errorf("shoggoth: sampled fraction %g out of range (0, 1]", frac)
	}
	seed = cfgs[0].SampledSeed
	if seed == 0 {
		seed = cfgs[0].Seed
	}
	k := int(frac*float64(len(cfgs)) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > len(cfgs) {
		k = len(cfgs)
	}
	return true, sampledSubset(len(cfgs), k, seed), frac, seed, nil
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}
