package shoggoth_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"shoggoth"
)

// TestGoldenExplicitConstantTrace locks the trace refactor's equivalence
// contract: installing the calibrated constant links explicitly as traces
// (forcing every transfer through the time-varying integration path) must
// reproduce testdata/golden_results.json byte for byte — the integral of a
// constant rate is computed with the exact arithmetic of the old scalar
// model, not merely a close approximation of it.
func TestGoldenExplicitConstantTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-mode deployment run is seconds-long; skipped with -short")
	}
	if runtime.GOARCH != "amd64" {
		// No run-to-run comparison here (the default golden test owns that),
		// so off-amd64 the run would assert nothing.
		t.Skipf("golden-file byte comparison is amd64-only (FMA contraction differs on %s)", runtime.GOARCH)
	}
	explicit := goldenResults(t, func(c *shoggoth.Config) {
		// A Link is the degenerate constant Trace; setting it routes every
		// transfer through netsim.TransferSeconds' integration loop.
		c.UplinkTrace = c.Uplink
		c.DownlinkTrace = c.Downlink
	})
	golden, err := os.ReadFile("testdata/golden_results.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(explicit, golden) {
		t.Fatal("explicit constant traces diverged from the golden capture; " +
			"the trace integration path is not bit-identical to the scalar link model")
	}
}

// TestStepOutageChangesQueueBehaviour locks the opposite direction: a
// time-varying trace must actually matter. Under periodic uplink blackouts
// uploads stall mid-transfer and bunch at recovery, so the cloud labeling
// queue sees collision bursts a constant link never produces — visible in
// cloud_queue_delay_* and dropped batches.
func TestStepOutageChangesQueueBehaviour(t *testing.T) {
	if testing.Short() {
		t.Skip("deployment runs are seconds-long; skipped with -short")
	}
	profile, err := shoggoth.ProfileByName(shoggoth.ProfileDETRAC)
	if err != nil {
		t.Fatal(err)
	}
	run := func(mutate func(*shoggoth.Config)) *shoggoth.Results {
		cfg := shoggoth.NewConfig(shoggoth.Shoggoth, profile,
			shoggoth.WithSeed(1), shoggoth.WithCycles(0.5))
		cfg.Cloud.Service.QueueCap = 1 // any arrival during service drops
		if mutate != nil {
			mutate(&cfg)
		}
		res, err := shoggoth.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	baseline := run(nil)
	outage := run(func(c *shoggoth.Config) {
		// 80 s blackout every 120 s: multiple flushes stall inside each
		// blackout and arrive together at recovery.
		tr, err := shoggoth.NewStepTrace(c.Uplink,
			[]shoggoth.TraceWindow{{StartSec: 30, EndSec: 110, RateBps: 0}}, 120)
		if err != nil {
			t.Fatal(err)
		}
		c.UplinkTrace = tr
	})

	type queueView struct {
		delayMean, delayMax float64
		dropped             int
	}
	b := queueView{baseline.CloudQueueDelayMeanSec, baseline.CloudQueueDelayMaxSec, baseline.CloudDroppedBatches}
	o := queueView{outage.CloudQueueDelayMeanSec, outage.CloudQueueDelayMaxSec, outage.CloudDroppedBatches}
	if b == o {
		t.Fatalf("blackouts left the cloud queue metrics unchanged: %+v", o)
	}
	if o.delayMax <= b.delayMax && o.dropped <= b.dropped {
		t.Fatalf("blackout bursts should raise queue delay or drops: baseline %+v, outage %+v", b, o)
	}
}

// TestHeteroFleetClusterDeterministic locks seed-determinism for
// heterogeneous scenario fleets: three dissimilar devices (different
// profiles, phase-shifted and shuffled scripts) contending for one shared
// cloud must replay bit-identically across two invocations.
func TestHeteroFleetClusterDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster runs are seconds-long; skipped with -short")
	}
	sc, err := shoggoth.ScenarioByName("hetero-fleet")
	if err != nil {
		t.Fatal(err)
	}
	var cache shoggoth.StudentCache
	run := func() []byte {
		cfgs, err := shoggoth.ScenarioConfigs(sc, shoggoth.Shoggoth, 0,
			shoggoth.WithSeed(3), shoggoth.WithCycles(0.15))
		if err != nil {
			t.Fatal(err)
		}
		cluster := &shoggoth.Cluster{QueueCap: 2, Cache: &cache}
		res, err := cluster.Run(context.Background(), cfgs)
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := run()
	second := run()
	if !bytes.Equal(first, second) {
		t.Fatal("two identical hetero-fleet cluster runs produced different ClusterResults JSON")
	}
	if len(first) == 0 || !bytes.Contains(first, []byte("kitti")) {
		t.Fatal("hetero fleet should report its kitti device")
	}
}
