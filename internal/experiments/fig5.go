package experiments

import (
	"fmt"
	"strings"

	"shoggoth/internal/core"
	"shoggoth/internal/metrics"
	"shoggoth/internal/video"
)

// Figure5Result reproduces Figure 5: the CDF of per-window mAP gain over
// Edge-Only for the four non-trivial strategies on UA-DETRAC.
type Figure5Result struct {
	Gains map[string][]float64 // strategy -> per-window mAP deltas vs Edge-Only

	// Headline fractions mirrored from the paper's discussion.
	ShoggothBeatsCloudFrac float64 // paper: ≈ 0.20
	ShoggothBeatsAMSFrac   float64 // paper: ≈ 0.73
	PromptAboveEdgeFrac    float64 // paper: ≈ 0.78
}

// Figure5 computes windowed mAP gains on the suite's UA-DETRAC runs, the
// ones Table I reports.
func Figure5(s *Suite) (*Figure5Result, error) {
	runs, err := s.paperRuns(video.DETRACProfile())
	if err != nil {
		return nil, err
	}
	byName := map[string]*core.Results{}
	for _, r := range runs[0] {
		byName[r.Strategy] = r
	}
	base := byName[core.EdgeOnly.String()]
	out := &Figure5Result{Gains: map[string][]float64{}}
	for _, name := range []string{"Cloud-Only", "Shoggoth", "AMS", "Prompt"} {
		out.Gains[name] = core.MAPGainSeries(byName[name], base)
	}

	// Headline cross-strategy fractions.
	out.ShoggothBeatsCloudFrac = fracGreater(byName["Shoggoth"], byName["Cloud-Only"])
	out.ShoggothBeatsAMSFrac = fracGreater(byName["Shoggoth"], byName["AMS"])
	out.PromptAboveEdgeFrac = 1 - metrics.FractionBelow(out.Gains["Prompt"], 0)
	return out, nil
}

// fracGreater returns the fraction of matched windows where a's mAP exceeds
// b's.
func fracGreater(a, b *core.Results) float64 {
	diffs := core.MAPGainSeries(a, b)
	if len(diffs) == 0 {
		return 0
	}
	n := 0
	for _, d := range diffs {
		if d > 0 {
			n++
		}
	}
	return float64(n) / float64(len(diffs))
}

// Render prints CDF quantiles per strategy plus the paper's headline
// fractions.
func (f *Figure5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIGURE 5. CDF of per-window mAP gain vs Edge-Only (UA-DETRAC).\n")
	fmt.Fprintf(&b, "%-11s %8s %8s %8s %8s %8s %10s\n", "strategy", "p10", "p25", "p50", "p75", "p90", "P[gain>0]")
	for _, name := range []string{"Cloud-Only", "Shoggoth", "AMS", "Prompt"} {
		g := f.Gains[name]
		fmt.Fprintf(&b, "%-11s %8.3f %8.3f %8.3f %8.3f %8.3f %9.0f%%\n",
			name,
			metrics.Quantile(g, 0.10), metrics.Quantile(g, 0.25), metrics.Quantile(g, 0.50),
			metrics.Quantile(g, 0.75), metrics.Quantile(g, 0.90),
			100*(1-metrics.FractionBelow(g, 1e-12)))
	}
	fmt.Fprintf(&b, "\nheadlines (measured vs paper):\n")
	fmt.Fprintf(&b, "  Shoggoth beats Cloud-Only on %4.0f%% of windows (paper ≈ 20%%)\n", 100*f.ShoggothBeatsCloudFrac)
	fmt.Fprintf(&b, "  Shoggoth beats AMS        on %4.0f%% of windows (paper ≈ 73%%)\n", 100*f.ShoggothBeatsAMSFrac)
	fmt.Fprintf(&b, "  Prompt ≥ Edge-Only        on %4.0f%% of windows (paper ≈ 78%%)\n", 100*f.PromptAboveEdgeFrac)
	return b.String()
}
