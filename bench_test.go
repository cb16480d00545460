package shoggoth_test

// Fleet benchmarks: the discrete-event engine's events/s, and two fleet
// contracts too large for `go test`, which fail the benchmark when broken.
// BenchmarkFleetEngineMillion holds a million-device cluster to the same
// bytes at 1 and 8 engine workers; BenchmarkSampledFidelity holds the
// sampled estimator's interval to a 1k-device full-fidelity truth run. The
// paper's tables and figures are shoggoth-sim's exp runs
// (internal/experiments), not benchmarks.

import (
	"bytes"
	"context"
	"fmt"
	"runtime/debug"
	"testing"

	"shoggoth"
)

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
				// A run holds ~3.4 GB at its peak. Returning it to the OS
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
