package scenario

import (
	"shoggoth/internal/cloud"
	"shoggoth/internal/netsim"
	"shoggoth/internal/video"
)

// Small literal helpers keeping the stock table scannable.
func scriptPhase(sec float64) video.ScriptTransform { return video.ScriptTransform{PhaseSec: sec} }
func scriptDomains(ds ...int) video.ScriptTransform { return video.ScriptTransform{Domains: ds} }
func scriptShuffleStretch(seed uint64, stretch float64) video.ScriptTransform {
	return video.ScriptTransform{ShuffleSeed: seed, Stretch: stretch}
}

// The stock scenarios. Each is a different answer to "what changes while
// the system runs?" — the paper's premise is that something always does:
// content drifts (day-night, hetero-fleet), the network fluctuates
// (lossy-uplink, degraded-cell, rush-hour), or, as the control case,
// nothing at all (steady).
func init() {
	MustRegister(Scenario{
		Name:    "steady",
		Summary: "the frozen default: unmodified workloads on constant calibrated links (the golden-results world)",
	})

	MustRegister(Scenario{
		Name:    "rush-hour",
		Summary: "three phase-staggered cameras under diurnal uplink congestion peaking mid-script",
		Devices: []DeviceSpec{
			{},
			{Workload: scriptPhase(120)},
			{Workload: scriptPhase(240)},
		},
		Network: NetworkSpec{
			Up: &TraceSpec{Kind: TraceDiurnal, PeriodSec: 720, Depth: 0.65},
		},
	})

	MustRegister(Scenario{
		Name:    "day-night",
		Summary: "the script cut to its sunny and night segments only: hard drift flips with no twilight in between",
		Devices: []DeviceSpec{
			{Workload: scriptDomains(0, 3)},
		},
	})

	MustRegister(Scenario{
		Name:    "lossy-uplink",
		Summary: "30 s uplink blackouts every 2 min: uploads stall, bunch at recovery and contend for the teacher",
		Network: NetworkSpec{
			Up: &TraceSpec{
				Kind:      TraceStep,
				PeriodSec: 120,
				Windows:   []netsim.Window{{StartSec: 75, EndSec: 105, RateBps: 0}},
			},
		},
	})

	MustRegister(Scenario{
		Name:    "degraded-cell",
		Summary: "a weak fading cell: ~1 Mbps-class uplink with seeded LTE-like rate swings in both directions",
		Network: NetworkSpec{
			Up: &TraceSpec{
				Kind: TraceLTE, BandwidthBps: 1.2e6, LatencySec: 0.09,
				StepSec: 8, MinFactor: 0.2, MaxFactor: 1.1, Seed: 0xCE11,
			},
			Down: &TraceSpec{
				Kind: TraceLTE, BandwidthBps: 3e6, LatencySec: 0.09,
				StepSec: 8, MinFactor: 0.25, MaxFactor: 1.2, Seed: 0xCE12,
			},
		},
	})

	MustRegister(Scenario{
		Name: "cell-tower",
		Summary: "a fleet multiplexed onto shared ~200 Mbps cell towers: concurrent uploads split each tower's " +
			"diurnal aggregate rate (fleet event engine only)",
		Devices: []DeviceSpec{
			{},
			{Workload: scriptPhase(120)},
			{Workload: scriptPhase(240)},
		},
		Network: NetworkSpec{
			Up:          &TraceSpec{Kind: TraceDiurnal, BandwidthBps: 200e6, PeriodSec: 720, Depth: 0.5},
			SharedCells: 4,
		},
	})

	MustRegister(Scenario{
		Name:    "hetero-fleet",
		Summary: "one cloud serving three dissimilar cameras: ua-detrac, phase-shifted kitti, shuffled slow waymo",
		Devices: []DeviceSpec{
			{Profile: "ua-detrac"},
			{Profile: "kitti", Workload: scriptPhase(90)},
			{Profile: "waymo", Workload: scriptShuffleStretch(7, 1.2)},
		},
	})

	MustRegister(Scenario{
		Name: "multi-cloud",
		Summary: "six phase-staggered cameras in two SLO classes on a 3-replica tier: domain-affinity routing, " +
			"token-bucket admission, 3-way teacher batching, cold-start pricing",
		Devices: []DeviceSpec{
			{SLOClass: "premium"},
			{Workload: scriptPhase(60), SLOClass: "premium"},
			{Workload: scriptPhase(120), SLOClass: "standard"},
			{Workload: scriptPhase(180), SLOClass: "standard"},
			{Workload: scriptPhase(240), SLOClass: "standard"},
			{Workload: scriptDomains(0, 3), SLOClass: "standard"},
		},
		Cloud: &cloud.TierConfig{
			Replicas:        3,
			Router:          "domain-affinity",
			Service:         cloud.ServiceConfig{Coalesce: 3},
			AdmitRatePerSec: 6,
			AdmitBurst:      8,
			ColdStartSec:    0.3,
		},
	})
}
