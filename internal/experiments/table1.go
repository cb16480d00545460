package experiments

import (
	"fmt"
	"strings"

	"shoggoth/internal/video"
)

// Table1Row is one (dataset, strategy) cell group of Table I.
type Table1Row struct {
	Profile  string
	Strategy string
	UpKbps   float64
	DownKbps float64
	MAP50    float64
}

// Table1Result reproduces Table I: up/down bandwidth and mAP@0.5 for all
// five strategies on the three dataset profiles.
type Table1Result struct {
	Rows []Table1Row
}

// paperTable1 holds the paper's reported values for side-by-side rendering:
// per dataset, per strategy: up, down, mAP.
var paperTable1 = map[string]map[string][3]float64{
	video.ProfileDETRAC: {
		"Edge-Only": {0, 0, 34.2}, "Cloud-Only": {3257, 3539, 58.9},
		"Prompt": {303, 22, 48.3}, "AMS": {151, 226, 51.6}, "Shoggoth": {135, 10, 53.5},
	},
	video.ProfileKITTI: {
		"Edge-Only": {0, 0, 56.8}, "Cloud-Only": {2184, 2437, 78.0},
		"Prompt": {179, 10, 71.4}, "AMS": {94, 203, 72.8}, "Shoggoth": {91, 5, 74.7},
	},
	video.ProfileWaymo: {
		"Edge-Only": {0, 0, 47.5}, "Cloud-Only": {2687, 2880, 64.7},
		"Prompt": {278, 15, 61.5}, "AMS": {127, 207, 59.1}, "Shoggoth": {112, 8, 61.9},
	},
}

// Table1 reads the full strategy × dataset grid from the suite.
func Table1(s *Suite) (*Table1Result, error) {
	byProfile, err := s.paperRuns(video.StockProfiles()...)
	if err != nil {
		return nil, err
	}
	res := &Table1Result{}
	for _, runs := range byProfile {
		for _, r := range runs {
			res.Rows = append(res.Rows, Table1Row{
				Profile:  r.Profile,
				Strategy: r.Strategy,
				UpKbps:   r.UpKbps,
				DownKbps: r.DownKbps,
				MAP50:    r.MAP50,
			})
		}
	}
	return res, nil
}

// Render formats the table with the paper's numbers alongside.
func (t *Table1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE I. Comparison of different strategies on three datasets (measured vs paper).\n")
	fmt.Fprintf(&b, "%-11s %-11s | %13s %13s %15s\n", "dataset", "strategy",
		"Up Kbps (pap)", "Dn Kbps (pap)", "mAP@0.5%% (pap)")
	cur := ""
	for _, row := range t.Rows {
		if row.Profile != cur {
			cur = row.Profile
			fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 72))
		}
		pap := paperTable1[row.Profile][row.Strategy]
		fmt.Fprintf(&b, "%-11s %-11s | %6.0f (%4.0f) %6.0f (%4.0f) %7s (%5.1f)\n",
			row.Profile, row.Strategy, row.UpKbps, pap[0], row.DownKbps, pap[1], pct(row.MAP50), pap[2])
	}
	return b.String()
}

// OrderingHolds reports whether the paper's qualitative mAP ordering holds
// for a profile: Cloud-Only best, Shoggoth above AMS and Prompt and
// Edge-Only worst among the five.
func (t *Table1Result) OrderingHolds(profile string) bool {
	byStrat := map[string]float64{}
	for _, row := range t.Rows {
		if row.Profile == profile {
			byStrat[row.Strategy] = row.MAP50
		}
	}
	if len(byStrat) != 5 {
		return false
	}
	return byStrat["Cloud-Only"] > byStrat["Shoggoth"] &&
		byStrat["Shoggoth"] > byStrat["Prompt"] &&
		byStrat["Shoggoth"] > byStrat["Edge-Only"] &&
		byStrat["AMS"] > byStrat["Edge-Only"] &&
		byStrat["Prompt"] > byStrat["Edge-Only"]
}
