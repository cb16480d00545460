package experiments

import (
	"fmt"
	"strings"

	"shoggoth/internal/core"
	"shoggoth/internal/scenario"
	"shoggoth/internal/strategy"
)

// ScenarioAblationRow is one (strategy, network scenario) cell.
type ScenarioAblationRow struct {
	Strategy string `json:"strategy"`
	Scenario string `json:"scenario"`

	MAP50  float64 `json:"map50"`
	AvgFPS float64 `json:"avg_fps"`
	UpKbps float64 `json:"up_kbps"`
	// Batches/Dropped/QueueDelay describe the cloud labeling queue: a
	// blackout bunches uploads at recovery, so delay and drops rise even
	// though the offered load is unchanged.
	Batches           int     `json:"cloud_batches"`
	Dropped           int     `json:"cloud_dropped_batches"`
	QueueDelayMeanSec float64 `json:"queue_delay_mean_sec"`
}

// ScenarioAblationResult sweeps strategies × network traces: the same
// workload and seed under a constant link (steady — the golden world), a
// periodic uplink blackout (lossy-uplink) and a weak fading cell
// (degraded-cell). It is the network counterpart of the policy ablation:
// where that table varies how the cloud serves uploads, this varies whether
// the uploads get through at all. AMS (Khani et al.) and SurveilEdge both
// evaluate under time-varying bandwidth; this table is where our
// reproduction does.
type ScenarioAblationResult struct {
	Mode     Mode
	QueueCap int
	Rows     []ScenarioAblationRow
}

// scenarioAblationQueueCap bounds the labeling queue so post-blackout
// upload bursts show up as drops, not just delay.
const scenarioAblationQueueCap = 2

// scenarioAblationScenarios are the swept network worlds (all single-device
// network-only scenarios, so every cell runs the identical workload).
var scenarioAblationScenarios = []string{"steady", "lossy-uplink", "degraded-cell"}

// ScenarioAblation runs the strategies × traces sweep. Runs are
// deterministic: the same Mode reproduces every row bit for bit.
func ScenarioAblation(m Mode) (*ScenarioAblationResult, error) {
	kinds := []core.StrategyKind{core.CloudOnly, core.AMS, core.Shoggoth}
	out := &ScenarioAblationResult{Mode: m, QueueCap: scenarioAblationQueueCap}

	var cfgs []core.Config
	for _, name := range scenarioAblationScenarios {
		sc, err := scenario.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, kind := range kinds {
			built, err := sc.Configs(kind, 1,
				strategy.WithSeed(m.Seed), strategy.WithCycles(m.Cycles))
			if err != nil {
				return nil, fmt.Errorf("scenario ablation %s x %s: %w", name, kind, err)
			}
			cfg := built[0]
			cfg.Cloud.Service.QueueCap = scenarioAblationQueueCap
			cfgs = append(cfgs, cfg)
		}
	}

	results, err := runAll(m, cfgs)
	if err != nil {
		return nil, err
	}
	i := 0
	for _, name := range scenarioAblationScenarios {
		for range kinds {
			r := results[i]
			out.Rows = append(out.Rows, ScenarioAblationRow{
				Strategy:          r.Strategy,
				Scenario:          name,
				MAP50:             r.MAP50,
				AvgFPS:            r.AvgFPS,
				UpKbps:            r.UpKbps,
				Batches:           r.CloudBatches,
				Dropped:           r.CloudDroppedBatches,
				QueueDelayMeanSec: r.CloudQueueDelayMeanSec,
			})
			i++
		}
	}
	return out, nil
}

// Render formats the ablation as a table grouped by scenario.
func (r *ScenarioAblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SCENARIO ABLATION. Strategies x network traces, one device, labeling queue cap %d.\n", r.QueueCap)
	fmt.Fprintf(&b, "%-14s %-11s %9s %7s %9s %8s %8s %11s\n",
		"scenario", "strategy", "mAP@0.5", "fps", "up Kbps", "batches", "dropped", "qdelay(s)")
	prev := ""
	for _, row := range r.Rows {
		name := row.Scenario
		if name == prev {
			name = ""
		} else {
			prev = name
		}
		fmt.Fprintf(&b, "%-14s %-11s %8.1f%% %7.1f %9.0f %8d %8d %11.3f\n",
			name, row.Strategy, row.MAP50*100, row.AvgFPS, row.UpKbps,
			row.Batches, row.Dropped, row.QueueDelayMeanSec)
	}
	return b.String()
}
