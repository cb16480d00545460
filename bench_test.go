package shoggoth_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section. Each benchmark regenerates the corresponding artefact
// on the simulated substrate and reports the headline numbers as custom
// benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. Benchmarks run the quick mode (one
// scenario cycle per run; use cmd/shoggoth-bench -full for paper-scale).

import (
	"context"
	"testing"

	"shoggoth"
	"shoggoth/internal/experiments"
)

func benchMode(b *testing.B) experiments.Mode {
	b.Helper()
	// Paper-scale mode: two scenario cycles, enough stream time for the
	// replay memory's retention effects (and therefore the paper's strategy
	// ordering) to express. -short drops to one cycle for a fast look.
	m := experiments.Full()
	if testing.Short() {
		m = experiments.Quick()
	}
	return m
}

// BenchmarkTable1 regenerates Table I: bandwidth and mAP@0.5 for all five
// strategies on the three dataset profiles.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t1, err := experiments.Table1(benchMode(b))
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range t1.Rows {
			if row.Profile == "ua-detrac" {
				b.ReportMetric(row.MAP50*100, "mAP_"+row.Strategy)
			}
		}
		b.Logf("\n%s", t1.Render())
	}
}

// BenchmarkFigure4 regenerates Figure 4: average FPS per strategy and the
// Shoggoth FPS-over-time series with training dips.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f4, err := experiments.Figure4(benchMode(b))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f4.AvgFPS["Shoggoth"], "fps_Shoggoth")
		b.ReportMetric(f4.AvgFPS["Edge-Only"], "fps_EdgeOnly")
		b.ReportMetric(f4.AvgFPS["Cloud-Only"], "fps_CloudOnly")
		b.Logf("\n%s", f4.Render())
	}
}

// BenchmarkTable2 regenerates Table II: the adaptive-training ablation
// (replay placement, freezing, no replay) with per-session training times.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t2, err := experiments.Table2(benchMode(b))
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range t2.Rows {
			if row.Method == "Ours (Baseline)" {
				b.ReportMetric(row.OverallSec, "session_s")
				b.ReportMetric(row.MAP50*100, "mAP_baseline")
			}
		}
		b.Logf("\n%s", t2.Render())
	}
}

// BenchmarkTable3 regenerates Table III: uplink bandwidth and average IoU
// across fixed sampling rates versus the adaptive controller.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t3, err := experiments.Table3(benchMode(b))
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range t3.Rows {
			if row.Rate == "Adaptive" {
				b.ReportMetric(row.AvgIoU, "IoU_adaptive")
				b.ReportMetric(row.UpKbps, "up_kbps_adaptive")
			}
		}
		b.Logf("\n%s", t3.Render())
	}
}

// BenchmarkFigure5 regenerates Figure 5: the CDF of per-window mAP gain
// over Edge-Only for Cloud-Only, Shoggoth, AMS and Prompt.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f5, err := experiments.Figure5(benchMode(b), nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*f5.ShoggothBeatsCloudFrac, "pct_beats_cloud")
		b.ReportMetric(100*f5.ShoggothBeatsAMSFrac, "pct_beats_ams")
		b.Logf("\n%s", f5.Render())
	}
}

// BenchmarkExtraAblations covers the design-choice ablations beyond the
// paper: BRN vs BN, reservoir vs FIFO replay, controller signal variants.
func BenchmarkExtraAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ex, err := experiments.Extra(benchMode(b))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ex.BRNMap*100, "mAP_BRN")
		b.ReportMetric(ex.BNMap*100, "mAP_BN")
		b.ReportMetric(ex.FIFOMap*100, "mAP_FIFO")
		b.Logf("\n%s", ex.Render())
	}
}

// BenchmarkFleetEngine measures the discrete-event fleet core: a
// 1k-device rush-hour cluster at events fidelity, reporting events/sec.
// (The repo benchmark's fleet_fifo and fleet_policy workloads time it at
// 20,000 devices: BENCHMARK.json, sim.engine.* rows.)
func BenchmarkFleetEngine(b *testing.B) {
	cfgs := scenarioFleet("rush-hour", 1_000, 5, shoggoth.WithSeed(11), shoggoth.WithCycles(0.05), atEvents)(b)
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		res, err := (&shoggoth.Cluster{}).Run(context.Background(), cfgs)
		if err != nil {
			b.Fatal(err)
		}
		events = res.Engine.Events
	}
	b.StopTimer()
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
