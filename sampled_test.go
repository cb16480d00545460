package shoggoth_test

import (
	"context"
	"testing"
	"time"

	"shoggoth"
)

// BenchmarkSampledFidelity is the estimator's differential proof: on a
// 1k-device rush-hour cluster, the sampled-fidelity bootstrap interval must
// bracket the true full-fidelity fleet aggregate, the number a (much more
// expensive) all-devices-full run reports. It reports the sampled run's
// wall time as a share of the truth run's, the saving the mode exists for.
func BenchmarkSampledFidelity(b *testing.B) {
	const devices = 1000
	configs := func(fidelity shoggoth.Option) []shoggoth.Config {
		return scenarioFleet("rush-hour", devices, 0, shoggoth.WithSeed(11), shoggoth.WithCycles(0.02), fidelity)(b)
	}
	run := func(fidelity shoggoth.Option) *shoggoth.ClusterResults {
		res, err := (&shoggoth.Cluster{Cache: &shoggoth.Students}).Run(context.Background(), configs(fidelity))
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	full := shoggoth.WithFidelity(shoggoth.FidelityFull)
	// Pretrain the students before the clock starts, or the truth run
	// would pay for them.
	for _, cfg := range configs(full) {
		shoggoth.Students.Get(cfg.Profile)
	}
	b.ResetTimer()

	var truthWall, sampledWall time.Duration
	for i := 0; i < b.N; i++ {
		start := b.Elapsed()
		truth := run(full)
		mid := b.Elapsed()
		est := run(shoggoth.WithSampledFidelity(0.1, 0))
		truthWall += mid - start
		sampledWall += b.Elapsed() - mid

		if truth.Fleet == nil || truth.Fleet.FullDevices != devices {
			b.Fatalf("truth run must aggregate %d full-fidelity devices: %+v", devices, truth.Fleet)
		}
		trueMAP := truth.Fleet.MAP50.Mean
		trueIoU := truth.Fleet.AvgIoU.Mean
		if trueMAP <= 0 || trueIoU <= 0 {
			b.Fatalf("truth aggregate degenerate (map50=%v iou=%v) — the comparison proves nothing", trueMAP, trueIoU)
		}
		s := est.Sampled
		if s == nil {
			b.Fatal("sampled run reported no SampledStats")
		}
		if s.SampledDevices != devices/10 || s.FleetDevices != devices {
			b.Fatalf("subset sizing wrong: %d/%d, want %d/%d", s.SampledDevices, s.FleetDevices, devices/10, devices)
		}
		if est.Fleet.FullDevices != s.SampledDevices {
			b.Fatalf("fleet aggregate saw %d full devices, want the %d sampled ones",
				est.Fleet.FullDevices, s.SampledDevices)
		}
		if s.MAP50.Lo95 > trueMAP || trueMAP > s.MAP50.Hi95 {
			b.Errorf("MAP50 interval [%v, %v] misses the true fleet mean %v", s.MAP50.Lo95, s.MAP50.Hi95, trueMAP)
		}
		if s.AvgIoU.Lo95 > trueIoU || trueIoU > s.AvgIoU.Hi95 {
			b.Errorf("AvgIoU interval [%v, %v] misses the true fleet mean %v", s.AvgIoU.Lo95, s.AvgIoU.Hi95, trueIoU)
		}
		if s.MAP50.StdErr <= 0 || s.MAP50.Hi95 <= s.MAP50.Lo95 {
			b.Errorf("degenerate MAP50 error bound: %+v", s.MAP50)
		}
	}
	b.ReportMetric(sampledWall.Seconds()/truthWall.Seconds(), "sampled/truth_wall")
}

// TestSampledFidelityRejections pins the mode's guard rails: mixed fleets
// refuse it, and a Session cannot carry it.
func TestSampledFidelityRejections(t *testing.T) {
	p := detrac(t)
	mk := func(n int, opts ...shoggoth.Option) []shoggoth.Config {
		cfgs := make([]shoggoth.Config, n)
		for i := range cfgs {
			cfgs[i] = shoggoth.NewConfig(shoggoth.Shoggoth, p,
				append([]shoggoth.Option{shoggoth.WithSeed(uint64(i + 1)), shoggoth.WithCycles(0.01)}, opts...)...)
		}
		return cfgs
	}

	mixed := mk(3, shoggoth.WithSampledFidelity(0.5, 0))
	mixed[1].Fidelity = shoggoth.FidelityEvents
	if _, err := (&shoggoth.Cluster{}).Run(context.Background(), mixed); err == nil {
		t.Error("cluster accepted a mixed sampled/events fleet")
	}

	disagree := mk(3, shoggoth.WithSampledFidelity(0.5, 0))
	disagree[2].SampledFrac = 0.25
	if _, err := (&shoggoth.Cluster{}).Run(context.Background(), disagree); err == nil {
		t.Error("cluster accepted devices disagreeing on the sampled fraction")
	}

	bad := mk(3, shoggoth.WithSampledFidelity(1.5, 0))
	if _, err := (&shoggoth.Cluster{}).Run(context.Background(), bad); err == nil {
		t.Error("cluster accepted a sampled fraction above 1")
	}

	if _, err := shoggoth.NewSession(mk(1, shoggoth.WithSampledFidelity(0.5, 0))[0]); err == nil {
		t.Error("a single Session accepted sampled fidelity")
	}
}
