package experiments

import (
	"fmt"
	"strings"

	"shoggoth/internal/core"
	"shoggoth/internal/video"
)

// TierAblationRow is one compute-tier cell: a full Shoggoth deployment on
// UA-DETRAC with the row's kernel tier and accumulation worker count.
type TierAblationRow struct {
	Tier    string `json:"tier"`    // "exact" or "fast/float64" (nn.Compute.String)
	Workers int    `json:"workers"` // gradient-accumulation workers

	MAP50    float64 `json:"map50"`
	AvgIoU   float64 `json:"avg_iou"`
	PhiMean  float64 `json:"phi_mean"`
	Sessions int     `json:"sessions"`
	// MAP50Delta is the row's accuracy drift from the exact-tier row
	// (signed; the fast tier's whole-deployment cost of reassociated
	// arithmetic).
	MAP50Delta float64 `json:"map50_delta"`
}

// TierAblationResult sweeps the compute tier: the exact baseline against the
// fast tier × {1, 2, 4} accumulation workers, on identical seeds, streams and
// teacher behaviour. Two invariants make this table meaningful: worker count
// must never change a number (fixed shards + tree reduction — the run fails
// if the three fast rows disagree), and the fast tier's drift stays within
// the tolerance the golden fast-tier test bounds.
type TierAblationResult struct {
	Mode Mode
	Rows []TierAblationRow
}

// TierAblation runs the compute-tier ablation. Runs are deterministic: the
// same Mode (cycles, seed) reproduces every row bit for bit.
func TierAblation(m Mode) (*TierAblationResult, error) {
	p := video.DETRACProfile()
	out := &TierAblationResult{Mode: m}

	type cell struct {
		tier    string
		workers int
	}
	cells := []cell{{"exact", 0}, {"fast", 1}, {"fast", 2}, {"fast", 4}}
	for _, c := range cells {
		cfg := configFor(core.Shoggoth, p, m)
		cfg.ComputeTier = c.tier
		cfg.Trainer.AccumWorkers = c.workers
		res, err := runAll(m, []core.Config{cfg})
		if err != nil {
			return nil, fmt.Errorf("tier ablation %s x %d workers: %w", c.tier, c.workers, err)
		}
		r := res[0]
		out.Rows = append(out.Rows, TierAblationRow{
			Tier:     cfg.Compute().String(),
			Workers:  c.workers,
			MAP50:    r.MAP50,
			AvgIoU:   r.AvgIoU,
			PhiMean:  r.PhiMean,
			Sessions: r.Sessions,
		})
	}
	base := out.Rows[0].MAP50 // the exact row
	for i := range out.Rows {
		out.Rows[i].MAP50Delta = out.Rows[i].MAP50 - base
	}

	// Worker-count independence is a hard contract, not a trend to eyeball:
	// every worker count must have produced identical fast rows.
	first := out.Rows[1]
	for _, row := range out.Rows[2:] {
		if row.MAP50 != first.MAP50 || row.AvgIoU != first.AvgIoU ||
			row.PhiMean != first.PhiMean || row.Sessions != first.Sessions {
			return nil, fmt.Errorf("tier ablation: fast rows diverge across worker counts (%d vs %d workers) — the fixed-shard determinism contract is broken",
				first.Workers, row.Workers)
		}
	}
	return out, nil
}

// Render formats the ablation as a table.
func (r *TierAblationResult) Render() string {
	var b strings.Builder
	b.WriteString("COMPUTE TIER ABLATION. Shoggoth on UA-DETRAC; identical seeds/streams per row.\n")
	b.WriteString("Worker counts of the fast tier are verified identical (fixed shards + tree reduction).\n")
	fmt.Fprintf(&b, "%-12s %7s %7s %7s %7s %9s %9s\n",
		"tier", "workers", "mAP@50", "IoU", "phi", "sessions", "dMAP")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %7d %6.1f%% %7.3f %7.3f %9d %+8.2f%%\n",
			row.Tier, row.Workers, row.MAP50*100, row.AvgIoU, row.PhiMean,
			row.Sessions, row.MAP50Delta*100)
	}
	return b.String()
}
