package shoggoth_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"
	"time"

	"shoggoth"
)

// eventsFleet builds n events-fidelity Shoggoth devices of a scenario. A
// positive wait overrides UploadMaxWaitSec, so that short runs flush on the
// deadline as well as on a full buffer.
func eventsFleet(t *testing.T, scenario string, n int, seed uint64, cycles, wait float64) []shoggoth.Config {
	t.Helper()
	sc, err := shoggoth.ScenarioByName(scenario)
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := shoggoth.ScenarioConfigs(sc, shoggoth.Shoggoth, n,
		shoggoth.WithSeed(seed), shoggoth.WithCycles(cycles), shoggoth.WithFidelity(shoggoth.FidelityEvents))
	if err != nil {
		t.Fatal(err)
	}
	if wait > 0 {
		for i := range cfgs {
			cfgs[i].UploadMaxWaitSec = wait
		}
	}
	return cfgs
}

// TestClusterEventsFidelityMatchesFrameStep is the differential oracle at
// events fidelity. The engine lets an events-fidelity device sleep until the
// first frame that could upload and replays the frames in between when it
// wakes; the frame stepper runs every device on every frame. Both must
// produce the same device results and cloud stats byte for byte — through
// the eager FIFO tier and the deferred wfq/least-loaded/coalescing one, with
// uploads flushed by a full buffer (default wait) and by the deadline
// (5 s), on a tier small enough that batches are both served and dropped —
// and the engine must count the same events at every worker count.
func TestClusterEventsFidelityMatchesFrameStep(t *testing.T) {
	tiers := []struct {
		name, policy, router string
		coalesce             int
	}{
		{name: "fifo"},
		{name: "wfq-least-loaded-coalesce4", policy: "wfq", router: "least-loaded", coalesce: 4},
	}
	for _, tier := range tiers {
		for _, wait := range []float64{0, 5} {
			t.Run(fmt.Sprintf("%s/wait=%g", tier.name, wait), func(t *testing.T) {
				cfgs := eventsFleet(t, "rush-hour", 300, 9, 0.2, wait)
				run := func(workers int, stepper bool) *shoggoth.ClusterResults {
					c := &shoggoth.Cluster{
						Replicas: 2, Workers: 4, QueueCap: 64,
						Policy: tier.policy, Router: tier.router, Coalesce: tier.coalesce,
						EngineWorkers: workers,
					}
					runner := c.Run
					if stepper {
						runner = c.RunFrameStep
					}
					res, err := runner(context.Background(), cfgs)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				oracle := run(0, true)
				if oracle.Cloud.Batches == 0 || oracle.Cloud.DroppedBatches == 0 {
					t.Fatalf("tier served %d batches and dropped %d: want both paths exercised",
						oracle.Cloud.Batches, oracle.Cloud.DroppedBatches)
				}
				wantDevices, wantCloud := encodeJSON(t, oracle.Devices), encodeJSON(t, oracle.Cloud)
				events := int64(0) // the first worker count's, which the rest must repeat
				for _, workers := range []int{1, 4} {
					got := run(workers, false)
					if !bytes.Equal(encodeJSON(t, got.Devices), wantDevices) {
						t.Fatalf("EngineWorkers=%d: device results diverged from the frame stepper", workers)
					}
					if !bytes.Equal(encodeJSON(t, got.Cloud), wantCloud) {
						t.Fatalf("EngineWorkers=%d: cloud stats diverged from the frame stepper:\nevent:  %s\nlegacy: %s",
							workers, encodeJSON(t, got.Cloud), wantCloud)
					}
					if events == 0 {
						events = got.Engine.Events
					}
					if got.Engine.Events == 0 || got.Engine.Events != events {
						t.Fatalf("EngineWorkers=%d: engine counted %d events, want %d", workers, got.Engine.Events, events)
					}
				}
			})
		}
	}
}

// TestClusterEventsFidelityCellTowerPinned covers the shared uplink cells,
// which the frame stepper rejects and so cannot referee: devices that flush
// on the same frame join their cell's medium at the same instant, where the
// device-index tie-break decides. The sha256 of the Devices and Cloud JSON
// is pinned to what commit acee705 produced — the engine before
// events-fidelity devices slept between uploads (amd64 only, as every golden
// comparison here is). One pass of the script is 72 virtual seconds: the
// default 25 s wait gives each device two deadline flushes, the 5 s wait a
// flush every few frames of sampling, most of them tied with a neighbour's.
func TestClusterEventsFidelityCellTowerPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("pinned digests are amd64-only (FMA contraction differs on %s)", runtime.GOARCH)
	}
	for _, pin := range []struct {
		wait   float64
		digest string
	}{
		{0, "c13571def9044fc56f4c2d0dc680a2131fd0b3c2549cf3ce22446684e9ec5a0e"},
		{5, "b5a4c3d4154f1a5056af78d00eebf1f3ef8be1588925b9bb2587ca4842e81e0a"},
	} {
		cfgs := eventsFleet(t, "cell-tower", 300, 9, 0.1, pin.wait)
		for _, workers := range []int{1, 4} {
			c := &shoggoth.Cluster{Replicas: 2, Workers: 4, QueueCap: 64, EngineWorkers: workers}
			res, err := c.Run(context.Background(), cfgs)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cloud.Batches == 0 {
				t.Fatal("no uploads crossed the shared cells")
			}
			h := sha256.New()
			h.Write(encodeJSON(t, res.Devices))
			h.Write(encodeJSON(t, res.Cloud))
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != pin.digest {
				t.Errorf("wait=%g EngineWorkers=%d: cell-tower outputs digest %s, want %s (%d batches, %d dropped)",
					pin.wait, workers, got, pin.digest, res.Cloud.Batches, res.Cloud.DroppedBatches)
			}
		}
	}
}

// TestClusterEventsFidelityCellTowerTerminates is the liveness check for
// the shared uplink: from 0.2 cycles up these runs meet transfers whose
// remaining bits drain in less than one ulp of the current instant, which
// must complete at that instant. A medium that re-armed a wake for them
// would spin at one instant forever, so each run goes under a deadline it
// beats by orders of magnitude, and the 0.2-cycle outputs are pinned like
// the 0.1-cycle ones above.
func TestClusterEventsFidelityCellTowerTerminates(t *testing.T) {
	const pin02 = "3087eb3689bcf2417a1d6bfd6024b5ce1a9b57619406026c07d32077c6141bc5"
	for _, cycles := range []float64{0.2, 0.5, 1.0} {
		cfgs := eventsFleet(t, "cell-tower", 12, 1, cycles, 0)
		for _, workers := range []int{1, 4} {
			type outcome struct {
				res *shoggoth.ClusterResults
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				res, err := (&shoggoth.Cluster{EngineWorkers: workers}).Run(context.Background(), cfgs)
				done <- outcome{res, err}
			}()
			var out outcome
			select {
			case out = <-done:
			case <-time.After(60 * time.Second):
				t.Fatalf("cycles=%g EngineWorkers=%d: cell-tower run still going after 60 s", cycles, workers)
			}
			if out.err != nil {
				t.Fatalf("cycles=%g EngineWorkers=%d: %v", cycles, workers, out.err)
			}
			if out.res.Cloud.Batches == 0 {
				t.Fatalf("cycles=%g: no uploads crossed the shared cells", cycles)
			}
			if cycles != 0.2 || runtime.GOARCH != "amd64" {
				continue
			}
			h := sha256.New()
			h.Write(encodeJSON(t, out.res.Devices))
			h.Write(encodeJSON(t, out.res.Cloud))
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != pin02 {
				t.Errorf("cycles=0.2 EngineWorkers=%d: cell-tower outputs digest %s, want %s", workers, got, pin02)
			}
		}
	}
}
