package experiments

import (
	"fmt"
	"strings"

	"shoggoth/internal/core"
	"shoggoth/internal/video"
)

// Figure4Result reproduces Figure 4: average FPS per strategy (left) and
// Shoggoth's per-second FPS over the first 1000 s (right).
type Figure4Result struct {
	AvgFPS     map[string]float64
	FPSSeries  []float64 // Shoggoth, per second
	SeriesSecs int
}

// paperFig4 holds the paper's (approximate) average FPS bars.
var paperFig4 = map[string]float64{
	"Edge-Only": 30.0, "Cloud-Only": 5.2, "Prompt": 22.3, "AMS": 29.7, "Shoggoth": 27.3,
}

// Figure4 extracts FPS behaviour from the suite's runs of the five
// strategies on UA-DETRAC.
func Figure4(s *Suite) (*Figure4Result, error) {
	runs, err := s.paperRuns(video.DETRACProfile())
	if err != nil {
		return nil, err
	}
	out := &Figure4Result{AvgFPS: map[string]float64{}}
	for _, r := range runs[0] {
		out.AvgFPS[r.Strategy] = r.AvgFPS
		if r.Strategy == core.Shoggoth.String() {
			series := r.FPSSeries
			if len(series) > 1000 {
				series = series[:1000]
			}
			out.FPSSeries = series
			out.SeriesSecs = len(series)
		}
	}
	return out, nil
}

// Render formats the averages and an ASCII sparkline of the FPS-over-time
// series with the training dips visible.
func (f *Figure4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIGURE 4 (left). Average FPS per strategy (measured vs paper).\n")
	for _, name := range []string{"Edge-Only", "Cloud-Only", "Prompt", "AMS", "Shoggoth"} {
		fmt.Fprintf(&b, "  %-11s %5.1f fps (paper ≈ %.1f)\n", name, f.AvgFPS[name], paperFig4[name])
	}
	fmt.Fprintf(&b, "\nFIGURE 4 (right). Shoggoth FPS over time, first %d s (dips = training sessions):\n", f.SeriesSecs)
	b.WriteString(sparkline(f.FPSSeries, 100))
	b.WriteString("\n")

	// Dip statistics: fraction of seconds at reduced FPS.
	lo, n := 0, 0
	for _, v := range f.FPSSeries {
		n++
		if v < 20 {
			lo++
		}
	}
	if n > 0 {
		fmt.Fprintf(&b, "  seconds below 20 fps: %.1f%% (training/encode windows)\n", 100*float64(lo)/float64(n))
	}
	return b.String()
}

// sparkline renders a float series as a fixed-width ASCII chart.
func sparkline(series []float64, width int) string {
	if len(series) == 0 {
		return "  (empty series)"
	}
	marks := []rune("▁▂▃▄▅▆▇█")
	step := len(series) / width
	if step < 1 {
		step = 1
	}
	var b strings.Builder
	b.WriteString("  ")
	for i := 0; i < len(series); i += step {
		end := i + step
		if end > len(series) {
			end = len(series)
		}
		var mn float64 = 1e18
		for _, v := range series[i:end] {
			if v < mn {
				mn = v // dips matter: show the window minimum
			}
		}
		idx := int(mn / 30 * float64(len(marks)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(marks) {
			idx = len(marks) - 1
		}
		b.WriteRune(marks[idx])
	}
	return b.String()
}
