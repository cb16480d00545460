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

// PolicyAblationRow is one (scheduling policy, worker count) cell of the
// cloud-scheduling ablation.
type PolicyAblationRow struct {
	Policy  string `json:"policy"`
	Workers int    `json:"workers"`

	// MeanMAP averages mAP@0.5 over the fleet's devices.
	MeanMAP float64 `json:"mean_map50"`
	// QueueDelayMeanSec / QueueDelayMaxSec are the shared queue's delays.
	QueueDelayMeanSec float64 `json:"queue_delay_mean_sec"`
	QueueDelayMaxSec  float64 `json:"queue_delay_max_sec"`
	// Batches and Dropped count the service's admitted and rejected work.
	Batches int `json:"batches"`
	Dropped int `json:"dropped_batches"`
	// Utilization is teacher busy time over the run duration (>1 = backlog).
	Utilization float64 `json:"utilization"`
}

// PolicyAblationResult sweeps the cloud scheduling engine: N same-seed
// Shoggoth devices (coinciding uploads — the adversarial contention
// pattern, and a deterministic one) share one capacity-bounded labeling
// service under every stock policy and two teacher pool sizes. It is the
// scheduling counterpart of Table III: where that table sweeps how much
// the fleet uploads, this sweeps how the cloud serves it.
type PolicyAblationResult struct {
	Devices  int
	QueueCap int
	Rows     []PolicyAblationRow
}

// policyAblationDevices and policyAblationQueueCap fix the fleet shape: 3
// colliding devices against a 2-batch queue keep every cell contended
// without growing the suite past the other tables' cost.
const (
	policyAblationDevices  = 3
	policyAblationQueueCap = 2
)

// PolicyAblation runs the cloud-scheduling ablation through the public
// Cluster runner. Runs are deterministic: the same Mode (cycles, seed)
// reproduces every row value bit for bit.
func PolicyAblation(m Mode) (*PolicyAblationResult, error) {
	p := video.DETRACProfile()
	out := &PolicyAblationResult{Devices: policyAblationDevices, QueueCap: policyAblationQueueCap}

	for _, policy := range []string{"fifo", "phi-priority", "wfq"} {
		for _, workers := range []int{1, 2} {
			tier := cloud.TierConfig{Service: cloud.ServiceConfig{QueueCap: policyAblationQueueCap, Policy: policy, Workers: workers}}
			cfgs := make([]core.Config, policyAblationDevices)
			for i := range cfgs {
				cfgs[i] = configFor(core.Shoggoth, p, m)
				cfgs[i].DeviceID = fmt.Sprintf("edge-%d", i+1)
				cfgs[i].Cloud = tier
			}
			res, err := (&shoggoth.Cluster{EngineWorkers: m.engineWorkers(), Cache: &sharedCache}).Run(context.Background(), cfgs)
			if err != nil {
				return nil, fmt.Errorf("policy ablation %s x %d workers: %w", policy, workers, err)
			}
			var mapSum float64
			for _, d := range res.Devices {
				mapSum += d.MAP50
			}
			out.Rows = append(out.Rows, PolicyAblationRow{
				Policy:            policy,
				Workers:           workers,
				MeanMAP:           mapSum / float64(len(res.Devices)),
				QueueDelayMeanSec: res.Cloud.QueueDelayMeanSec,
				QueueDelayMaxSec:  res.Cloud.QueueDelayMaxSec,
				Batches:           res.Cloud.Batches,
				Dropped:           res.Cloud.DroppedBatches,
				Utilization:       res.Utilization(),
			})
		}
	}
	return out, nil
}

// Render formats the ablation as a table.
func (r *PolicyAblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CLOUD SCHEDULING ABLATION. %d same-seed devices, one shared labeling service, queue cap %d.\n",
		r.Devices, r.QueueCap)
	fmt.Fprintf(&b, "%-13s %8s %9s %11s %10s %8s %8s %6s\n",
		"policy", "workers", "mAP@0.5", "qdelay(s)", "qmax(s)", "batches", "dropped", "util")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-13s %8d %8.1f%% %11.3f %10.3f %8d %8d %5.0f%%\n",
			row.Policy, row.Workers, row.MeanMAP*100,
			row.QueueDelayMeanSec, row.QueueDelayMaxSec, row.Batches, row.Dropped, row.Utilization*100)
	}
	return b.String()
}
