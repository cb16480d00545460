package shoggoth_test

import (
	"bytes"
	"context"
	"runtime/debug"
	"testing"

	"shoggoth"
)

// TestScenarioClusterDoubleRun is the end-to-end determinism harness backing
// the static analyzers (DESIGN.md §10): whatever contract the wallclock,
// globalrand and maprange rules fail to catch at lint time must still
// surface here at runtime. It executes the same multi-device Cluster
// scenario twice — a time-varying rush-hour network trace, three devices
// contending for one shared cloud — and requires the full Results JSON to
// match byte for byte. It runs even under -short, so CI's `go test -race
// ./...` always drives it with the race detector watching the shared cloud
// service and the worker pool.
func TestScenarioClusterDoubleRun(t *testing.T) {
	sc, err := shoggoth.ScenarioByName("rush-hour")
	if err != nil {
		t.Fatal(err)
	}
	var cache shoggoth.StudentCache
	run := func() ([]byte, *shoggoth.ClusterResults) {
		cfgs, err := shoggoth.ScenarioConfigs(sc, shoggoth.Shoggoth, 3,
			shoggoth.WithSeed(11), shoggoth.WithCycles(0.1))
		if err != nil {
			t.Fatal(err)
		}
		res, err := (&shoggoth.Cluster{Cache: &cache}).Run(context.Background(), cfgs)
		if err != nil {
			t.Fatal(err)
		}
		return encodeJSON(t, res), res
	}
	first, res := run()
	second, _ := run()
	if !bytes.Equal(first, second) {
		t.Fatal("two identical scenario Cluster runs produced different ClusterResults JSON")
	}
	// The equality must be of a run that did real work, not of two empty runs.
	if len(res.Devices) != 3 {
		t.Fatalf("want 3 device results, got %d", len(res.Devices))
	}
	for i, d := range res.Devices {
		if d.SampledFrames == 0 {
			t.Errorf("device %d sampled no frames — the double run proved nothing", i)
		}
	}
}

// TestFleetDeterminism10k is the tentpole determinism proof at fleet
// scale: a 10k-device rush-hour cluster at events fidelity, run twice
// serially and twice sharded across 8 engine workers, must produce
// byte-identical ClusterResults JSON every time. It runs even under
// -short, so CI's `go test -race ./...` drives the sharded engine — worker
// pool, outbox merges, shared scheduler — with the race detector watching.
func TestFleetDeterminism10k(t *testing.T) {
	sc, err := shoggoth.ScenarioByName("rush-hour")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) ([]byte, *shoggoth.ClusterResults) {
		cfgs, err := shoggoth.ScenarioConfigs(sc, shoggoth.Shoggoth, 10_000,
			shoggoth.WithSeed(11), shoggoth.WithCycles(0.05), shoggoth.WithFidelity(shoggoth.FidelityEvents))
		if err != nil {
			t.Fatal(err)
		}
		for i := range cfgs {
			// Short horizon: flush upload buffers early so the cloud path
			// (queueing, labeling, training pricing) genuinely exercises.
			cfgs[i].UploadMaxWaitSec = 5
		}
		res, err := (&shoggoth.Cluster{EngineWorkers: workers}).Run(context.Background(), cfgs)
		if err != nil {
			t.Fatal(err)
		}
		return encodeJSON(t, res), res
	}
	serial, res := run(1)
	if len(res.Devices) != 10_000 {
		t.Fatalf("want 10000 device results, got %d", len(res.Devices))
	}
	var sampled int
	for _, d := range res.Devices {
		sampled += d.SampledFrames
	}
	if sampled == 0 || res.Cloud.Batches == 0 {
		t.Fatalf("fleet did no cloud work (sampled=%d batches=%d) — the double run proved nothing",
			sampled, res.Cloud.Batches)
	}
	if serial2, _ := run(1); !bytes.Equal(serial, serial2) {
		t.Fatal("two serial 10k-device runs produced different ClusterResults JSON")
	}
	if sharded, _ := run(8); !bytes.Equal(serial, sharded) {
		t.Fatal("EngineWorkers=8 changed the 10k-device ClusterResults")
	}
	if sharded2, _ := run(8); !bytes.Equal(serial, sharded2) {
		t.Fatal("second sharded 10k-device run diverged")
	}
}

// TestFleetDeterminismMega is the million-device proof (50k under -race;
// see determinism_scale_test.go): a rush-hour cluster at events fidelity in
// AggregateOnly mode, run serially and sharded across 8 engine workers,
// must produce byte-identical ClusterResults JSON — the hierarchical merge
// tree, analytic cloud costing and streaming Welford aggregation all sit on
// that path. Not -short-skipped: this is the scaling tentpole's regression
// harness. AggregateOnly keeps the run's memory at the fleet aggregate (not
// a million Results structs), and the tight QueueCap keeps the teacher
// queue O(cap) while every device's upload — admitted or dropped — still
// crosses the outbox merge and the shared timeline.
func TestFleetDeterminismMega(t *testing.T) {
	sc, err := shoggoth.ScenarioByName("rush-hour")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) ([]byte, *shoggoth.ClusterResults) {
		cfgs, err := shoggoth.ScenarioConfigs(sc, shoggoth.Shoggoth, megaFleetDevices,
			shoggoth.WithSeed(11), shoggoth.WithCycles(0.01), shoggoth.WithFidelity(shoggoth.FidelityEvents))
		if err != nil {
			t.Fatal(err)
		}
		for i := range cfgs {
			cfgs[i].UploadMaxWaitSec = 5 // flush uploads inside the short horizon
		}
		res, err := (&shoggoth.Cluster{EngineWorkers: workers, AggregateOnly: true, QueueCap: 64}).
			Run(context.Background(), cfgs)
		if err != nil {
			t.Fatal(err)
		}
		return encodeJSON(t, res), res
	}
	// Each run holds ~4 GB live at its peak. Return it to the OS before the
	// next run and before the tests after this one: otherwise the GC's heap
	// goal stays sized for a million devices, and the tests that follow grow
	// the process past that high-water mark instead of collecting.
	t.Cleanup(debug.FreeOSMemory)
	serial, res := run(1)
	debug.FreeOSMemory()
	if res.Devices != nil {
		t.Fatalf("AggregateOnly run still carried %d device results", len(res.Devices))
	}
	if res.Fleet == nil || res.Fleet.Devices != megaFleetDevices {
		t.Fatalf("fleet aggregate missing or wrong size: %+v", res.Fleet)
	}
	if res.Fleet.SampledFrames.Mean == 0 || res.Cloud.Batches == 0 || res.Cloud.DroppedBatches == 0 {
		t.Fatalf("fleet did no cloud work (sampled mean=%v batches=%d dropped=%d) — the run proved nothing",
			res.Fleet.SampledFrames.Mean, res.Cloud.Batches, res.Cloud.DroppedBatches)
	}
	if sharded, _ := run(8); !bytes.Equal(serial, sharded) {
		t.Fatalf("EngineWorkers=8 changed the %d-device ClusterResults", megaFleetDevices)
	}
}

// TestMultiCloudTierDeterminism extends the determinism contract to the
// routed cloud tier: the multi-cloud scenario (3 replicas, domain-affinity
// routing, token-bucket admission, 3-way teacher batching, cold-start
// pricing) at events fidelity must produce byte-identical ClusterResults
// whether the engine runs serially or sharded across 8 workers — replica
// choice, bucket state and coalescing groups are all functions of the
// admitted batch sequence, never of engine interleaving. The run must also
// genuinely exercise the tier: several replicas served, batches coalesced,
// both SLO classes present.
func TestMultiCloudTierDeterminism(t *testing.T) {
	sc, err := shoggoth.ScenarioByName("multi-cloud")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) ([]byte, *shoggoth.ClusterResults) {
		cfgs, err := shoggoth.ScenarioConfigs(sc, shoggoth.Shoggoth, 6,
			shoggoth.WithSeed(7), shoggoth.WithCycles(0.5), shoggoth.WithFidelity(shoggoth.FidelityEvents))
		if err != nil {
			t.Fatal(err)
		}
		// No cloud knobs on the Cluster: the shared tier adopts the scenario's
		// tier stamped into the device configs.
		res, err := (&shoggoth.Cluster{EngineWorkers: workers}).Run(context.Background(), cfgs)
		if err != nil {
			t.Fatal(err)
		}
		return encodeJSON(t, res), res
	}
	serial, res := run(1)
	if len(res.Cloud.Replicas) != 3 {
		t.Fatalf("want 3 replica stat blocks, got %d", len(res.Cloud.Replicas))
	}
	served := 0
	for _, r := range res.Cloud.Replicas {
		if r.Batches > 0 {
			served++
		}
	}
	if served < 2 {
		t.Fatalf("only %d replicas served batches — routing proved nothing", served)
	}
	if res.Cloud.CoalescedForwards == 0 {
		t.Fatal("no coalesced forwards — cross-device batching never engaged")
	}
	for _, class := range []string{"premium", "standard"} {
		cs, ok := res.Cloud.SLOClasses[class]
		if !ok || cs.Batches == 0 {
			t.Fatalf("SLO class %q missing or empty: %+v", class, res.Cloud.SLOClasses)
		}
	}
	if res.Cloud.JainFairness <= 0 || res.Cloud.JainFairness > 1 {
		t.Fatalf("Jain fairness out of range: %v", res.Cloud.JainFairness)
	}
	if serial2, _ := run(1); !bytes.Equal(serial, serial2) {
		t.Fatal("two serial multi-cloud runs produced different ClusterResults JSON")
	}
	if sharded, _ := run(8); !bytes.Equal(serial, sharded) {
		t.Fatal("EngineWorkers=8 changed the multi-cloud ClusterResults")
	}
}
