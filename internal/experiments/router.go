package experiments

import (
	"context"
	"fmt"
	"strings"

	"shoggoth"
	"shoggoth/internal/cloud"
	"shoggoth/internal/core"
	"shoggoth/internal/video"
)

// RouterAblationRow is one (replica router, replica count) cell of the
// cloud routing-tier ablation.
type RouterAblationRow struct {
	Router   string `json:"router"`
	Replicas int    `json:"replicas"`

	// QueueDelayMeanSec is the tier-wide queueing delay.
	QueueDelayMeanSec float64 `json:"queue_delay_mean_sec"`
	// Batches and Dropped count the tier's admitted and rejected work.
	Batches int `json:"batches"`
	Dropped int `json:"dropped_batches"`
	// CoalescedForwards counts multi-batch teacher forwards (cross-device
	// batching engaging under the row's load).
	CoalescedForwards int `json:"coalesced_forwards"`
	// JainFairness is the Jain index over per-device served-batch counts
	// (1 = perfectly even service).
	JainFairness float64 `json:"jain_fairness"`
	// Utilization is teacher busy time over the run duration, summed over
	// replicas (>1 = more than one teacher-second per wall second).
	Utilization float64 `json:"utilization"`
}

// RouterAblationResult sweeps the cloud routing tier: N phase-staggered
// Shoggoth devices (so different devices stream different domains at a
// given moment — the signal domain-affinity routes on) share a
// capacity-bounded tier under every stock router and two replica counts,
// with cross-device teacher batching enabled. It is the routing
// counterpart of the scheduling ablation: where that table sweeps how one
// replica serves its queue, this sweeps how work spreads across replicas.
type RouterAblationResult struct {
	Devices  int
	QueueCap int
	Coalesce int
	Rows     []RouterAblationRow
}

// routerAblation* fix the fleet shape: 4 phase-staggered devices against
// 2-batch replica queues keep every cell contended (and every router
// distinguishable) without growing the suite past the other tables' cost.
const (
	routerAblationDevices  = 4
	routerAblationQueueCap = 2
	routerAblationCoalesce = 3
)

// RouterAblation runs the routing-tier ablation through the public Cluster
// runner. Runs are deterministic: the same Mode (cycles, seed) reproduces
// every row value bit for bit.
func RouterAblation(m Mode) (*RouterAblationResult, error) {
	p := video.DETRACProfile()
	out := &RouterAblationResult{
		Devices:  routerAblationDevices,
		QueueCap: routerAblationQueueCap,
		Coalesce: routerAblationCoalesce,
	}

	for _, e := range shoggoth.CloudRouterEntries() {
		router := e.Name
		for _, replicas := range []int{1, 3} {
			tier := cloud.TierConfig{
				Replicas: replicas,
				Router:   router,
				Service:  cloud.ServiceConfig{QueueCap: routerAblationQueueCap, Coalesce: routerAblationCoalesce},
			}
			cfgs := make([]core.Config, routerAblationDevices)
			for i := range cfgs {
				cfgs[i] = configFor(core.Shoggoth, p, m)
				cfgs[i].DeviceID = fmt.Sprintf("edge-%d", i+1)
				cfgs[i].Seed = m.Seed + uint64(i)
				cfgs[i].Cloud = tier
			}
			res, err := (&shoggoth.Cluster{Cache: &sharedCache}).Run(context.Background(), cfgs)
			if err != nil {
				return nil, fmt.Errorf("router ablation %s x %d replicas: %w", router, replicas, err)
			}
			out.Rows = append(out.Rows, RouterAblationRow{
				Router:            router,
				Replicas:          replicas,
				QueueDelayMeanSec: res.Cloud.QueueDelayMeanSec,
				Batches:           res.Cloud.Batches,
				Dropped:           res.Cloud.DroppedBatches,
				CoalescedForwards: res.Cloud.CoalescedForwards,
				JainFairness:      res.Cloud.JainFairness,
				Utilization:       res.Utilization(),
			})
		}
	}
	return out, nil
}

// Render formats the ablation as a table.
func (r *RouterAblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CLOUD ROUTING ABLATION. %d seed-staggered devices, shared tier, per-replica queue cap %d, %d-way teacher batching.\n",
		r.Devices, r.QueueCap, r.Coalesce)
	fmt.Fprintf(&b, "%-16s %8s %11s %8s %8s %10s %6s %6s\n",
		"router", "replicas", "qdelay(s)", "batches", "dropped", "coalesced", "jain", "util")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %8d %11.3f %8d %8d %10d %6.3f %5.0f%%\n",
			row.Router, row.Replicas, row.QueueDelayMeanSec, row.Batches, row.Dropped,
			row.CoalescedForwards, row.JainFairness, row.Utilization*100)
	}
	return b.String()
}
