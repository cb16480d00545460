package shoggoth

import (
	"context"
	"fmt"

	"shoggoth/internal/cloud"
	"shoggoth/internal/core"
	"shoggoth/internal/sim"
)

// runFrameStep is the differential oracle the event engine is checked
// against (TestDeterminismMatrix's frame-step variants): every device on
// ONE scheduler, stepped in global frame-time order (ties break by device
// index, so simultaneous frames replay identically run to run). Each Step
// advances the shared scheduler, executing every device's due
// cloud/network/training events along the way. O(N) per frame. It models
// neither shared uplink cells (core.NewSystemOpts rejects the config) nor
// sampled fidelity.
func (c *Cluster) runFrameStep(ctx context.Context, cfgs []Config, cache *StudentCache) (*ClusterResults, error) {
	for i := range cfgs {
		if cfgs[i].Fidelity == core.FidelitySampled {
			return nil, fmt.Errorf("shoggoth: cluster device %d: the frame stepper does not model fidelity %q", i, core.FidelitySampled)
		}
	}
	sched := sim.NewScheduler()
	tier := cloud.NewTier(c.tierConfig(cfgs))
	tier.Bind(sched)
	sessions := make([]*core.System, len(cfgs))
	for i, cfg := range cfgs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if cfg.DeviceID == "" {
			cfg.DeviceID = fmt.Sprintf("edge-%d", i+1)
		}
		if cfg.Fidelity != core.FidelityEvents {
			defaultPretrained(&cfg, cache)
		}
		sys, err := core.NewSystemOpts(&cfg, core.SystemOptions{Scheduler: sched, Cloud: tier})
		if err != nil {
			return nil, fmt.Errorf("shoggoth: cluster device %d: %w", i, err)
		}
		sessions[i] = sys
	}

	for steps := 0; ; steps++ {
		if steps&0xFF == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		best, bestT := -1, 0.0
		for i := range sessions {
			if t, ok := sessions[i].NextFrameTime(); ok && (best < 0 || t < bestT) {
				best, bestT = i, t
			}
		}
		if best < 0 {
			break
		}
		sessions[best].Step()
	}

	out := &ClusterResults{}
	if !c.AggregateOnly {
		out.Devices = make([]*Results, len(sessions))
	}
	var fold fleetFold
	for i, sys := range sessions {
		r := sys.Finish()
		if out.Devices != nil {
			out.Devices[i] = r
		}
		if c.Perf != nil {
			c.Perf.Add(sys.Workspace().Perf)
		}
		fold.add(r, cfgs[i].Fidelity != core.FidelityEvents)
	}
	out.Fleet = fold.aggregate()
	out.Cloud = tier.TierStats()
	return out, nil
}
