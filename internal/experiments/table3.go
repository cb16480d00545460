package experiments

import (
	"fmt"
	"strings"

	"shoggoth/internal/core"
	"shoggoth/internal/video"
)

// Table3Row is one sampling-rate setting.
type Table3Row struct {
	Rate     string // "0.1" … "2.0" or "Adaptive"
	UpKbps   float64
	AvgIoU   float64
	Sessions int
}

// Table3Result reproduces Table III: sensitivity of uplink bandwidth and
// average IoU to the frame sampling rate, fixed rates versus adaptive.
type Table3Result struct {
	Rows []Table3Row
}

// paperTable3 holds the paper's values: up Kbps, average IoU.
var paperTable3 = map[string][2]float64{
	"0.1": {19, 0.483}, "0.2": {36, 0.524}, "0.4": {61, 0.556},
	"0.8": {122, 0.623}, "1.6": {249, 0.612}, "2.0": {307, 0.597},
	"Adaptive": {135, 0.640},
}

// Table3 sweeps fixed sampling rates on UA-DETRAC and adds the adaptive
// controller run.
func Table3(m Mode) (*Table3Result, error) {
	p := video.DETRACProfile()
	rates := []float64{0.1, 0.2, 0.4, 0.8, 1.6, 2.0}
	var cfgs []core.Config
	for _, r := range rates {
		cfg := configFor(core.Shoggoth, p, m)
		cfg.SampleRate = r
		cfgs = append(cfgs, cfg)
	}
	cfgs = append(cfgs, configFor(core.Shoggoth, p, m)) // adaptive
	results, err := runAll(m, cfgs)
	if err != nil {
		return nil, err
	}
	out := &Table3Result{}
	for i, r := range rates {
		out.Rows = append(out.Rows, Table3Row{
			Rate:     fmt.Sprintf("%.1f", r),
			UpKbps:   results[i].UpKbps,
			AvgIoU:   results[i].AvgIoU,
			Sessions: results[i].Sessions,
		})
	}
	last := results[len(results)-1]
	out.Rows = append(out.Rows, Table3Row{
		Rate: "Adaptive", UpKbps: last.UpKbps, AvgIoU: last.AvgIoU, Sessions: last.Sessions,
	})
	return out, nil
}

// Render formats the sweep with the paper's numbers alongside.
func (t *Table3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE III. Sensitivity to different sampling rates (measured vs paper).\n")
	fmt.Fprintf(&b, "%-9s %18s %20s %9s\n", "rate", "Up Kbps (paper)", "Avg IoU (paper)", "sessions")
	for _, row := range t.Rows {
		pap := paperTable3[row.Rate]
		fmt.Fprintf(&b, "%-9s %8.0f (%5.0f) %12.3f (%5.3f) %9d\n",
			row.Rate, row.UpKbps, pap[0], row.AvgIoU, pap[1], row.Sessions)
	}
	return b.String()
}

// AdaptiveBeatsAllFixed reports whether the adaptive controller's IoU
// exceeds every fixed rate's (the paper's Table III headline).
func (t *Table3Result) AdaptiveBeatsAllFixed() bool {
	var adaptive float64
	best := -1.0
	for _, row := range t.Rows {
		if row.Rate == "Adaptive" {
			adaptive = row.AvgIoU
		} else if row.AvgIoU > best {
			best = row.AvgIoU
		}
	}
	return adaptive >= best
}
