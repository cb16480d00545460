package shoggoth_test

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"shoggoth"
)

// clusterConfigs builds n same-profile shoggoth devices. Identical seeds
// make every device's stream (and so its upload times) coincide — the
// worst-case contention pattern, and a deterministic one.
func clusterConfigs(t testing.TB, n int, sameSeed bool, duration float64) []shoggoth.Config {
	t.Helper()
	profile := detrac(t)
	pre := shoggoth.Students.Get(profile)
	cfgs := make([]shoggoth.Config, n)
	for i := range cfgs {
		seed := uint64(1)
		if !sameSeed {
			seed = uint64(i + 1)
		}
		cfgs[i] = shoggoth.NewConfig(shoggoth.Shoggoth, profile,
			shoggoth.WithSeed(seed), shoggoth.WithDuration(duration))
		cfgs[i].Pretrained = pre
	}
	return cfgs
}

// TestClusterContention: N same-seed devices upload simultaneously, so all
// but the first batch at each arrival instant must queue behind the shared
// teacher — per-device queueing delay has to surface under load.
func TestClusterContention(t *testing.T) {
	if testing.Short() {
		t.Skip("deployment run is seconds-long; skipped with -short")
	}
	cfgs := clusterConfigs(t, 3, true, 120)
	res, err := (&shoggoth.Cluster{}).Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cloud.Batches == 0 {
		t.Fatal("no batches reached the shared cloud")
	}
	if res.Cloud.QueueDelayMaxSec <= 0 {
		t.Fatal("simultaneous uploads produced zero queueing delay")
	}
	var devBatches, delayed int
	for i, d := range res.Devices {
		devBatches += d.CloudBatches
		if d.CloudQueueDelayMaxSec > 0 {
			delayed++
		}
		if want := "edge-" + string(rune('1'+i)); d.Device != want {
			t.Fatalf("device %d named %q, want %q", i, d.Device, want)
		}
	}
	if devBatches != res.Cloud.Batches {
		t.Fatalf("per-device batches %d don't sum to aggregate %d", devBatches, res.Cloud.Batches)
	}
	// With ties broken by device index, at least the later devices queue.
	if delayed < 2 {
		t.Fatalf("want ≥2 devices with queueing delay, got %d", delayed)
	}
	if res.Utilization() <= 0 {
		t.Fatal("teacher utilization should be positive")
	}
}

// TestClusterQueueCapDrops: with a one-batch queue and simultaneous
// arrivals, the collided batches must be dropped, not served late.
func TestClusterQueueCapDrops(t *testing.T) {
	if testing.Short() {
		t.Skip("deployment run is seconds-long; skipped with -short")
	}
	cfgs := clusterConfigs(t, 3, true, 120)
	res, err := (&shoggoth.Cluster{QueueCap: 1}).Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cloud.DroppedBatches == 0 {
		t.Fatal("QueueCap=1 with simultaneous uploads should drop batches")
	}
	var devDrops int
	for _, d := range res.Devices {
		devDrops += d.CloudDroppedBatches
	}
	if devDrops != res.Cloud.DroppedBatches {
		t.Fatalf("per-device drops %d don't sum to aggregate %d", devDrops, res.Cloud.DroppedBatches)
	}
	if res.Cloud.QueueDelayMaxSec > 0 {
		// Every admitted batch found an idle-or-just-freed teacher (cap 1 =
		// at most the in-service batch outstanding), so served batches can
		// still queue behind an unfinished one only via busyUntil.
		t.Logf("note: admitted batches queued %.3fs behind in-service work", res.Cloud.QueueDelayMaxSec)
	}
}

// TestClusterUnknownPolicyRejected: a bad policy name is a config error
// surfaced before any device runs, not a panic mid-fleet.
func TestClusterUnknownPolicyRejected(t *testing.T) {
	cfgs := clusterConfigs(t, 1, false, 30)
	if _, err := (&shoggoth.Cluster{Policy: "no-such-policy"}).Run(context.Background(), cfgs); err == nil {
		t.Fatal("unknown scheduling policy must be rejected")
	}
	if _, err := (&shoggoth.Cluster{Workers: -1}).Run(context.Background(), cfgs); err == nil {
		t.Fatal("negative worker count must be rejected")
	}
}

// TestClusterValidatesTheTierItBuilds: with no cluster-level cloud knobs the
// shared tier comes from device 0's Config.Cloud, and Run checks that tier —
// a bad name there is an error listing the valid ones, not a panic inside
// the tier constructor.
func TestClusterValidatesTheTierItBuilds(t *testing.T) {
	cfgs := clusterConfigs(t, 2, false, 30)
	for i := range cfgs {
		cfgs[i].Fidelity = shoggoth.FidelityEvents
		cfgs[i].Cloud.Service.Policy = "bogus"
	}
	_, err := (&shoggoth.Cluster{}).Run(context.Background(), cfgs)
	if err == nil || !strings.Contains(err.Error(), "wfq") {
		t.Fatalf("device-config policy %q: got %v, want an error listing the registered policies", "bogus", err)
	}
}

// TestClusterDuplicateDeviceIDRejected: two devices may never alias one
// cloud-side φ stream.
func TestClusterDuplicateDeviceIDRejected(t *testing.T) {
	cfgs := clusterConfigs(t, 2, false, 30)
	cfgs[0].DeviceID = "cam"
	cfgs[1].DeviceID = "cam"
	if _, err := (&shoggoth.Cluster{}).Run(context.Background(), cfgs); err == nil {
		t.Fatal("duplicate device ids must be rejected")
	}
}

// TestClusterMixedDurationsRejected: the cluster timeline is shared, so a
// device with a shorter duration would keep seeing cloud/training events
// past its own end; mixed durations are a config error.
func TestClusterMixedDurationsRejected(t *testing.T) {
	cfgs := clusterConfigs(t, 2, false, 30)
	cfgs[1].DurationSec = 60
	if _, err := (&shoggoth.Cluster{}).Run(context.Background(), cfgs); err == nil {
		t.Fatal("mixed per-device durations must be rejected")
	}
}

// TestClusterSharedCellUplink: the cell-tower scenario multiplexes devices
// onto shared uplink cells, which only a Cluster models, so a private
// Session must reject a cell assignment. The cluster runs themselves are
// TestDeterminismMatrix's events-cell-tower rows.
func TestClusterSharedCellUplink(t *testing.T) {
	cfgs := scenarioFleet("cell-tower", 12, 0, shoggoth.WithSeed(9), shoggoth.WithCycles(0.1), atEvents)(t)
	if _, err := shoggoth.NewSession(cfgs[0]); err == nil {
		t.Fatal("a private session models no shared medium and must reject a cell assignment")
	}
}

// TestClusterEngineValidation: bad engine knobs are config errors.
func TestClusterEngineValidation(t *testing.T) {
	cfgs := clusterConfigs(t, 1, false, 30)
	if _, err := (&shoggoth.Cluster{EngineWorkers: -1}).Run(context.Background(), cfgs); err == nil {
		t.Fatal("negative engine worker count must be rejected")
	}
}

// TestClusterUtilizationSemantics documents Utilization's contract: an
// empty or zero-duration run reports 0 (no division by zero), and values
// above 1 are meaningful — they say the fleet offered more labeling work
// than the teacher absorbed within the horizon, the backlog running past
// the end of the run.
func TestClusterUtilizationSemantics(t *testing.T) {
	empty := &shoggoth.ClusterResults{}
	if u := empty.Utilization(); u != 0 {
		t.Fatalf("empty run utilization = %v, want 0", u)
	}
	zeroDur := &shoggoth.ClusterResults{
		Devices: []*shoggoth.Results{{Duration: 0}},
	}
	zeroDur.Cloud.BusySeconds = 3 // promoted from the embedded aggregate
	if u := zeroDur.Utilization(); u != 0 {
		t.Fatalf("zero-duration run utilization = %v, want 0 (guard, not NaN/Inf)", u)
	}
	overloaded := &shoggoth.ClusterResults{
		Devices: []*shoggoth.Results{{Duration: 100}, {Duration: 80}},
	}
	overloaded.Cloud.BusySeconds = 150
	if u := overloaded.Utilization(); u != 1.5 {
		t.Fatalf("overloaded run utilization = %v, want 1.5 (>1 = backlog past the horizon)", u)
	}
}

// TestClusterLeavesCallerConfigs: a Cluster lends each device its config
// for the run and rewrites only a private copy of one it has to change, so
// the caller's configs come back deep-equal. The fleets hold every config
// the Cluster rewrites: devices with no DeviceID, full-fidelity devices
// with no Pretrained student (both filled in for the run) and a
// sampled-fidelity fleet, whose chosen devices run full fidelity.
func TestClusterLeavesCallerConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("deployment runs are seconds-long; skipped with -short")
	}
	p := detrac(t)
	mk := func(n int, opts ...shoggoth.Option) []shoggoth.Config {
		cfgs := make([]shoggoth.Config, n)
		for i := range cfgs {
			cfgs[i] = shoggoth.NewConfig(shoggoth.Shoggoth, p,
				append([]shoggoth.Option{shoggoth.WithSeed(uint64(i + 1)), shoggoth.WithCycles(0.01)}, opts...)...)
		}
		return cfgs
	}
	full := mk(2)
	full[1].DeviceID = "cam-2"
	fleets := []struct {
		name string
		cfgs []shoggoth.Config
	}{
		{"events", mk(3, shoggoth.WithFidelity(shoggoth.FidelityEvents))},
		{"full", full},
		{"sampled", mk(4, shoggoth.WithSampledFidelity(0.5, 0))},
	}
	for _, f := range fleets {
		before := slices.Clone(f.cfgs)
		if _, err := (&shoggoth.Cluster{Cache: &shoggoth.Students}).Run(context.Background(), f.cfgs); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		for i := range before {
			if !reflect.DeepEqual(f.cfgs[i], before[i]) {
				t.Errorf("%s fleet: Cluster.Run wrote the caller's config %d", f.name, i)
			}
		}
	}
}
