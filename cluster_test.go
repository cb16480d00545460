package shoggoth_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"shoggoth"
)

func encodeJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestClusterSingleDeviceMatchesSession locks the Cluster's golden
// guarantee: one device stepped through a shared scheduler and shared cloud
// service must reproduce the classic single-Session path bit for bit.
func TestClusterSingleDeviceMatchesSession(t *testing.T) {
	if testing.Short() {
		t.Skip("deployment run is seconds-long; skipped with -short")
	}
	profile, err := shoggoth.ProfileByName(shoggoth.ProfileDETRAC)
	if err != nil {
		t.Fatal(err)
	}
	cfg := shoggoth.NewConfig(shoggoth.Shoggoth, profile,
		shoggoth.WithSeed(1), shoggoth.WithDuration(180))
	cfg.DeviceID = "edge-1"
	cfg.Pretrained = shoggoth.PretrainedStudent(profile)

	single, err := shoggoth.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := (&shoggoth.Cluster{}).Run(context.Background(), []shoggoth.Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	if len(cluster.Devices) != 1 {
		t.Fatalf("want 1 device result, got %d", len(cluster.Devices))
	}
	if got, want := encodeJSON(t, cluster.Devices[0]), encodeJSON(t, single); !bytes.Equal(got, want) {
		t.Fatalf("1-device Cluster diverged from the Session path:\ncluster: %s\nsession: %s", got, want)
	}
	if cluster.Cloud.Batches != single.CloudBatches {
		t.Fatalf("cloud aggregate batches %d != device batches %d",
			cluster.Cloud.Batches, single.CloudBatches)
	}
}

// clusterConfigs builds n same-profile shoggoth devices. Identical seeds
// make every device's stream (and so its upload times) coincide — the
// worst-case contention pattern, and a deterministic one.
func clusterConfigs(t *testing.T, n int, sameSeed bool, duration float64) []shoggoth.Config {
	t.Helper()
	profile, err := shoggoth.ProfileByName(shoggoth.ProfileDETRAC)
	if err != nil {
		t.Fatal(err)
	}
	pre := shoggoth.PretrainedStudent(profile)
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

// TestClusterDeterministic: a fixed config list yields identical
// ClusterResults run to run, devices' coupling included.
func TestClusterDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("deployment run is seconds-long; skipped with -short")
	}
	cfgs := clusterConfigs(t, 3, false, 120)
	first, err := (&shoggoth.Cluster{}).Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	second, err := (&shoggoth.Cluster{}).Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := encodeJSON(t, first), encodeJSON(t, second); !bytes.Equal(a, b) {
		t.Fatal("two identical Cluster runs produced different ClusterResults")
	}
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

// TestClusterPolicyAndWorkersRun: the policy/worker knobs drive a real
// cluster deterministically — same-seed devices under WFQ with a 2-worker
// teacher pool still produce identical results run to run.
func TestClusterPolicyAndWorkersRun(t *testing.T) {
	if testing.Short() {
		t.Skip("deployment run is seconds-long; skipped with -short")
	}
	cfgs := clusterConfigs(t, 3, true, 120)
	run := func() *shoggoth.ClusterResults {
		res, err := (&shoggoth.Cluster{Policy: "wfq", Workers: 2}).Run(context.Background(), cfgs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run()
	if first.Cloud.Batches == 0 {
		t.Fatal("no batches reached the shared cloud under wfq")
	}
	var devBatches int
	for _, d := range first.Devices {
		devBatches += d.CloudBatches
	}
	if devBatches != first.Cloud.Batches {
		t.Fatalf("per-device batches %d don't sum to aggregate %d", devBatches, first.Cloud.Batches)
	}
	second := run()
	if a, b := encodeJSON(t, first), encodeJSON(t, second); !bytes.Equal(a, b) {
		t.Fatal("two identical wfq Cluster runs produced different ClusterResults")
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

// TestClusterEngineMatchesFrameStep is the differential oracle: the
// discrete-event engine and the frame stepper kept in framestep_test.go
// must produce byte-identical device results and cloud stats on any
// configuration both support (the engine additionally reports EngineInfo,
// which the stepper leaves nil).
func TestClusterEngineMatchesFrameStep(t *testing.T) {
	if testing.Short() {
		t.Skip("deployment run is seconds-long; skipped with -short")
	}
	cfgs := clusterConfigs(t, 3, false, 120)
	event, err := (&shoggoth.Cluster{}).Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := (&shoggoth.Cluster{}).RunFrameStep(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := encodeJSON(t, event.Devices), encodeJSON(t, legacy.Devices); !bytes.Equal(got, want) {
		t.Fatalf("event engine diverged from the frame stepper:\nevent:  %s\nlegacy: %s", got, want)
	}
	if got, want := encodeJSON(t, event.Cloud), encodeJSON(t, legacy.Cloud); !bytes.Equal(got, want) {
		t.Fatalf("cloud stats diverged:\nevent:  %s\nlegacy: %s", got, want)
	}
	if event.Engine == nil || event.Engine.Events == 0 || event.Engine.Epochs == 0 {
		t.Fatalf("event engine reported no telemetry: %+v", event.Engine)
	}
	if legacy.Engine != nil {
		t.Fatal("frame stepper must not report EngineInfo")
	}
}

// TestClusterEngineWorkerInvariance locks the tentpole determinism
// contract at full fidelity: EngineWorkers is a wall-clock knob only, so
// ClusterResults — EngineInfo included — must be byte-identical at any
// value. (The 10k-device events-fidelity variant lives in
// determinism_test.go.)
func TestClusterEngineWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("deployment run is seconds-long; skipped with -short")
	}
	cfgs := clusterConfigs(t, 3, true, 120)
	run := func(workers int) []byte {
		res, err := (&shoggoth.Cluster{EngineWorkers: workers}).Run(context.Background(), cfgs)
		if err != nil {
			t.Fatal(err)
		}
		return encodeJSON(t, res)
	}
	serial := run(1)
	for _, workers := range []int{4, 8} {
		if got := run(workers); !bytes.Equal(got, serial) {
			t.Fatalf("EngineWorkers=%d changed ClusterResults", workers)
		}
	}
}

// TestClusterEventsFidelity runs a small fleet in the sparse events mode:
// devices sample and upload, the shared teacher labels, training rounds
// are priced — all without a student network — and the run replays
// byte-identically.
func TestClusterEventsFidelity(t *testing.T) {
	sc, err := shoggoth.ScenarioByName("rush-hour")
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := shoggoth.ScenarioConfigs(sc, shoggoth.Shoggoth, 24,
		shoggoth.WithSeed(5), shoggoth.WithCycles(0.1), shoggoth.WithFidelity(shoggoth.FidelityEvents))
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&shoggoth.Cluster{}).Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cloud.Batches == 0 {
		t.Fatal("events fidelity produced no cloud batches")
	}
	var sampled, processed int
	for _, d := range res.Devices {
		sampled += d.SampledFrames
		processed += d.FramesProcessed
	}
	if sampled == 0 || processed == 0 {
		t.Fatalf("events fidelity ran no workload: sampled=%d processed=%d", sampled, processed)
	}
	if res.Engine == nil || res.Engine.Events == 0 {
		t.Fatal("event engine telemetry missing")
	}
	again, err := (&shoggoth.Cluster{EngineWorkers: 4}).Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := encodeJSON(t, res), encodeJSON(t, again); !bytes.Equal(a, b) {
		t.Fatal("events-fidelity run not worker-count invariant")
	}
}

// TestClusterSharedCellUplink runs the cell-tower scenario: devices
// multiplexed onto shared uplink cells, transfers splitting each tower's
// aggregate rate.
func TestClusterSharedCellUplink(t *testing.T) {
	sc, err := shoggoth.ScenarioByName("cell-tower")
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := shoggoth.ScenarioConfigs(sc, shoggoth.Shoggoth, 12,
		shoggoth.WithSeed(9), shoggoth.WithCycles(0.1), shoggoth.WithFidelity(shoggoth.FidelityEvents))
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&shoggoth.Cluster{}).Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cloud.Batches == 0 {
		t.Fatal("no uploads crossed the shared cells")
	}
	again, err := (&shoggoth.Cluster{EngineWorkers: 8}).Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := encodeJSON(t, res), encodeJSON(t, again); !bytes.Equal(a, b) {
		t.Fatal("shared-cell run not worker-count invariant")
	}
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
