package shoggoth_test

import (
	"context"
	"testing"

	"shoggoth"
)

// TestSampledFidelityBracketsTruth is the estimator's differential proof: on
// a 1k-device rush-hour cluster, the sampled-fidelity bootstrap interval
// must bracket the true full-fidelity fleet aggregate — the number a (much
// more expensive) all-devices-full run reports.
func TestSampledFidelityBracketsTruth(t *testing.T) {
	const devices = 1000
	run := func(fidelity shoggoth.Option) *shoggoth.ClusterResults {
		cfgs := scenarioFleet("rush-hour", devices, 0, shoggoth.WithSeed(11), shoggoth.WithCycles(0.02), fidelity)(t)
		return onCluster(defaultTier(0))(t, cfgs)
	}

	truth := run(shoggoth.WithFidelity(shoggoth.FidelityFull))
	if truth.Fleet == nil || truth.Fleet.FullDevices != devices {
		t.Fatalf("truth run must aggregate %d full-fidelity devices: %+v", devices, truth.Fleet)
	}
	trueMAP := truth.Fleet.MAP50.Mean
	trueIoU := truth.Fleet.AvgIoU.Mean
	if trueMAP <= 0 || trueIoU <= 0 {
		t.Fatalf("truth aggregate degenerate (map50=%v iou=%v) — the comparison proves nothing", trueMAP, trueIoU)
	}

	est := run(shoggoth.WithSampledFidelity(0.1, 0))
	s := est.Sampled
	if s == nil {
		t.Fatal("sampled run reported no SampledStats")
	}
	if s.SampledDevices != devices/10 || s.FleetDevices != devices {
		t.Fatalf("subset sizing wrong: %d/%d, want %d/%d", s.SampledDevices, s.FleetDevices, devices/10, devices)
	}
	if est.Fleet.FullDevices != s.SampledDevices {
		t.Fatalf("fleet aggregate saw %d full devices, want the %d sampled ones",
			est.Fleet.FullDevices, s.SampledDevices)
	}
	if s.MAP50.Lo95 > trueMAP || trueMAP > s.MAP50.Hi95 {
		t.Errorf("MAP50 interval [%v, %v] misses the true fleet mean %v", s.MAP50.Lo95, s.MAP50.Hi95, trueMAP)
	}
	if s.AvgIoU.Lo95 > trueIoU || trueIoU > s.AvgIoU.Hi95 {
		t.Errorf("AvgIoU interval [%v, %v] misses the true fleet mean %v", s.AvgIoU.Lo95, s.AvgIoU.Hi95, trueIoU)
	}
	if s.MAP50.StdErr <= 0 || s.MAP50.Hi95 <= s.MAP50.Lo95 {
		t.Errorf("degenerate MAP50 error bound: %+v", s.MAP50)
	}
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
