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
//
// Two fleet contracts too large for `go test` run here as benchmarks:
// BenchmarkFleetEngineMillion holds a million-device cluster to the same
// bytes at 1 and 8 engine workers, and peaks near 5 GB RSS, so -bench=.
// needs a box with room for it; BenchmarkSampledFidelity holds the
// sampled estimator's interval to a 1k-device full-fidelity truth run.

import (
	"bytes"
	"context"
	"fmt"
	"runtime/debug"
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

// BenchmarkFleetEngineMillion runs a million rush-hour devices at events
// fidelity through the hierarchical merge tree, analytic cloud costing and
// the streaming fleet fold, at 1 and 8 engine workers, and fails unless both
// report the same bytes. AggregateOnly keeps the results at the fleet
// aggregate, and the tight QueueCap keeps the teacher queue O(cap) while
// every upload, admitted or dropped, still crosses the outbox merge and the
// shared timeline. Each worker count reports its own events/s.
func BenchmarkFleetEngineMillion(b *testing.B) {
	const devices = 1_000_000
	configs := scenarioFleet("rush-hour", devices, 5, shoggoth.WithSeed(11), shoggoth.WithCycles(0.01), atEvents)
	got := map[int][]byte{}
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			c := &shoggoth.Cluster{EngineWorkers: workers, AggregateOnly: true, QueueCap: 64, Cache: &shoggoth.Students}
			var events int64
			for i := 0; i < b.N; i++ {
				// Fresh configs for every run, which the run may drop
				// once consumed.
				b.StopTimer()
				cfgs := configs(b)
				b.StartTimer()
				res, err := c.Run(context.Background(), cfgs)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if res.Devices != nil || res.Fleet == nil || res.Fleet.Devices != devices {
					b.Fatalf("want only a %d-device fleet aggregate, got %d device results and %+v", devices, len(res.Devices), res.Fleet)
				}
				if res.Fleet.SampledFrames.Mean == 0 || res.Cloud.Batches == 0 || res.Cloud.DroppedBatches == 0 {
					b.Fatalf("fleet did no cloud work (sampled mean=%v batches=%d dropped=%d)",
						res.Fleet.SampledFrames.Mean, res.Cloud.Batches, res.Cloud.DroppedBatches)
				}
				events += res.Engine.Events
				got[workers] = encodeJSON(b, res)
				// A run holds ~4 GB at its peak. Returning it to the OS
				// resets the GC's heap goal, which would otherwise let
				// the next run grow past that high-water mark.
				debug.FreeOSMemory()
				b.StartTimer()
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
	if got[1] != nil && got[8] != nil && !bytes.Equal(got[1], got[8]) {
		b.Fatalf("8 engine workers diverged from 1:\ngot:  %.2000s\nwant: %.2000s", got[8], got[1])
	}
}

// BenchmarkFleetEngineAdaptive times the fleet engine where the devices
// adapt, which the other fleet measurements do not: 5,000 rush-hour
// devices at events fidelity for one cycle, with the controller's φ target
// at 0.6. That target is an operating point at which rates both rise and
// fall and devices complete training sessions, not a tuned result. The
// timed runs are AggregateOnly, as the repo benchmark's fleets are, and
// report events/s and epochs. After them one run with per-device results
// checks the work, as shares of devices: rates rise on at least 90% and
// fall on at least 90%, and at least 90% complete a training session. Its
// fleet aggregate must equal the timed runs'.
func BenchmarkFleetEngineAdaptive(b *testing.B) {
	const devices, minShare = 5_000, 0.9
	cfgs := scenarioFleet("rush-hour", devices, 0, shoggoth.WithSeed(11), shoggoth.WithCycles(1), atEvents)(b)
	for i := range cfgs {
		cfgs[i].Controller.PhiTarget = 0.6
	}
	c := &shoggoth.Cluster{AggregateOnly: true, Replicas: 8, Workers: 32, QueueCap: 4096, Cache: &shoggoth.Students}
	var res *shoggoth.ClusterResults
	var events, epochs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = c.Run(context.Background(), cfgs); err != nil {
			b.Fatal(err)
		}
		events += res.Engine.Events
		epochs += res.Engine.Epochs
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(epochs)/float64(b.N), "epochs/op")

	full, err := (&shoggoth.Cluster{Replicas: 8, Workers: 32, QueueCap: 4096, Cache: &shoggoth.Students}).Run(context.Background(), cfgs)
	if err != nil {
		b.Fatal(err)
	}
	if got, want := encodeJSON(b, res.Fleet), encodeJSON(b, full.Fleet); !bytes.Equal(got, want) {
		b.Fatalf("the timed runs' fleet aggregate differs from the checked run's:\ngot:  %s\nwant: %s", got, want)
	}
	var rose, fell, trained int
	for _, d := range full.Devices {
		rises, cuts := rateMoves(&shoggoth.ClusterResults{Devices: []*shoggoth.Results{d}})
		rose += min(rises, 1)
		fell += min(cuts, 1)
		trained += min(d.Sessions, 1)
	}
	share := func(n int) float64 { return float64(n) / devices }
	b.ReportMetric(share(rose), "rose_share")
	b.ReportMetric(share(fell), "fell_share")
	b.ReportMetric(share(trained), "trained_share")
	if share(rose) < minShare || share(fell) < minShare || share(trained) < minShare {
		b.Fatalf("the fleet did not adapt: rates rose on %d, fell on %d and sessions completed on %d of %d devices, want %.0f%% each",
			rose, fell, trained, devices, 100*minShare)
	}
}
