package scenario

import (
	"fmt"

	"shoggoth/internal/core"
	"shoggoth/internal/netsim"
	"shoggoth/internal/strategy"
)

// Configs builds the per-device Configs of an n-device fleet running the
// scenario under one strategy — ready for a Session (one device), a Fleet,
// or a Cluster (devices then share one cloud). n <= 0 means the scenario's
// natural size (one device per declared slice). Device i gets slice
// i mod len(Devices), device id "edge-<i+1>" and seed base+i, so a fixed
// (scenario, strategy, seed, n) replays bit-identically.
//
// Durations are uniform across devices — a Cluster runs one virtual
// timeline — and are measured on the *base* profile: WithCycles counts
// passes of the base script even for stretched or subset device variants.
func (sc *Scenario) Configs(kind core.StrategyKind, n int, opts ...strategy.Option) ([]core.Config, error) {
	// No up-front Validate: the build loop below surfaces every error a dry
	// validation would (profiles, transforms, traces), without constructing
	// each device's world twice.
	if n <= 0 {
		n = sc.NaturalDevices()
	}
	base, err := sc.baseProfile()
	if err != nil {
		return nil, err
	}
	// The reference config fixes the run duration and base seed for the
	// whole fleet.
	ref := strategy.Configure(kind, base, opts...)

	slices := sc.Devices
	if len(slices) == 0 {
		slices = []DeviceSpec{{}}
	}
	// Build each slice ONCE and stamp per-device identity afterwards. The
	// expensive, immutable ingredients — the transformed profile and the
	// network traces (pure functions of virtual time) — are shared by every
	// device of a slice, so a 100k-device fleet holds len(Devices) worlds,
	// not 100k copies.
	built := make([]core.Config, len(slices))
	cells := make([]int, len(slices))
	for si, dev := range slices {
		p, _, err := sc.deviceProfile(dev)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: device slice %d: %w", sc.Name, si, err)
		}
		cfg := strategy.Configure(kind, p, opts...)
		cfg.DurationSec = ref.DurationSec
		cfg.SLOClass = dev.SLOClass
		if sc.Cloud != nil {
			// Every device carries the full tier spec: a Session honours it
			// directly, and a Cluster with no explicit cloud knobs adopts
			// device 0's spec for the shared tier.
			cfg.Cloud = *sc.Cloud
		}

		net := sc.deviceNetwork(dev)
		if net.SharedCells < 0 {
			return nil, fmt.Errorf("scenario %s: device slice %d: negative shared cell count %d", sc.Name, si, net.SharedCells)
		}
		cells[si] = net.SharedCells
		cfg.Uplink, cfg.UplinkTrace, err = buildTrace(net.Up, cfg.Uplink)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: device slice %d uplink: %w", sc.Name, si, err)
		}
		cfg.Downlink, cfg.DownlinkTrace, err = buildTrace(net.Down, cfg.Downlink)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: device slice %d downlink: %w", sc.Name, si, err)
		}
		built[si] = cfg
	}

	cfgs := make([]core.Config, n)
	for i := 0; i < n; i++ {
		cfg := built[i%len(slices)]
		cfg.Seed = ref.Seed + uint64(i)
		cfg.DeviceID = fmt.Sprintf("edge-%d", i+1)
		if c := cells[i%len(slices)]; c > 0 {
			cfg.UplinkCell = 1 + i%c
		}
		cfgs[i] = cfg
	}
	return cfgs, nil
}

// Default shape parameters for zero-valued TraceSpec fields.
const (
	defaultLTEStepSec   = 10
	defaultLTEMinFactor = 0.25
	defaultLTEMaxFactor = 1.25

	defaultDiurnalPeriodSec = 720
	defaultDiurnalStepSec   = 30
	defaultDiurnalDepth     = 0.5
)

// buildTrace turns one direction's spec into the effective constant link
// parameters plus, for time-varying kinds, the trace. A nil spec or a
// constant kind returns a nil trace: that is the frozen default path, which
// core prices bit-identically to the pre-trace scalar model.
func buildTrace(spec *TraceSpec, def netsim.Link) (netsim.Link, netsim.Trace, error) {
	if spec == nil {
		return def, nil, nil
	}
	base := def
	if spec.BandwidthBps != 0 {
		base.BandwidthBps = spec.BandwidthBps
	}
	if spec.LatencySec != 0 {
		base.LatencySec = spec.LatencySec
	}
	switch spec.Kind {
	case "", TraceConstant:
		if base.BandwidthBps <= 0 {
			return def, nil, fmt.Errorf("scenario: non-positive constant bandwidth %g bps", base.BandwidthBps)
		}
		if base.LatencySec < 0 {
			return def, nil, fmt.Errorf("scenario: negative latency %g s", base.LatencySec)
		}
		return base, nil, nil
	case TraceStep:
		tr, err := netsim.NewStepTrace(base, spec.Windows, spec.PeriodSec)
		return base, tr, err
	case TraceLTE:
		step, minF, maxF := spec.StepSec, spec.MinFactor, spec.MaxFactor
		if step == 0 {
			step = defaultLTEStepSec
		}
		if minF == 0 {
			minF = defaultLTEMinFactor
		}
		if maxF == 0 {
			maxF = defaultLTEMaxFactor
		}
		tr, err := netsim.NewLTETrace(base, step, minF, maxF, spec.Seed)
		return base, tr, err
	case TraceDiurnal:
		period, step, depth := spec.PeriodSec, spec.StepSec, spec.Depth
		if period == 0 {
			period = defaultDiurnalPeriodSec
		}
		if step == 0 {
			step = defaultDiurnalStepSec
		}
		if depth == 0 {
			depth = defaultDiurnalDepth
		}
		tr, err := netsim.NewDiurnalTrace(base, period, step, depth)
		return base, tr, err
	default:
		return def, nil, fmt.Errorf("scenario: unknown trace kind %q (want %s, %s, %s or %s)",
			spec.Kind, TraceConstant, TraceStep, TraceLTE, TraceDiurnal)
	}
}
