package shoggoth_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"shoggoth"
)

// TestClusterEventsFidelityMatchesFrameStep holds the engine, whose
// events-fidelity devices sleep until the first frame that could upload, to
// the frame stepper, which runs every device on every frame: both cloud
// driving modes, uploads flushed by a full buffer (default wait) and by the
// deadline (5 s), on a tier small enough that batches are both served and
// dropped. Each case is a TestDeterminismMatrix row.
func TestClusterEventsFidelityMatchesFrameStep(t *testing.T) {
	for _, tier := range []struct {
		name, policy, router string
		coalesce             int
	}{
		{name: "fifo"},
		{name: "wfq-least-loaded-coalesce4", policy: "wfq", router: "least-loaded", coalesce: 4},
	} {
		cluster := func(w int) *shoggoth.Cluster {
			return &shoggoth.Cluster{Replicas: 2, Workers: 4, QueueCap: 64,
				Policy: tier.policy, Router: tier.router, Coalesce: tier.coalesce, EngineWorkers: w}
		}
		for _, wait := range []float64{0, 5} {
			t.Run(fmt.Sprintf("%s/wait=%g", tier.name, wait), determinismRow{
				configs: scenarioFleet("rush-hour", 300, wait, shoggoth.WithSeed(9), shoggoth.WithCycles(0.2), atEvents),
				cluster: cluster, workers: []int{4}, frameStep: true,
				work: func(t *testing.T, r *shoggoth.ClusterResults) {
					if r.Cloud.Batches == 0 || r.Cloud.DroppedBatches == 0 {
						t.Fatalf("tier served %d batches and dropped %d: want both paths exercised", r.Cloud.Batches, r.Cloud.DroppedBatches)
					}
					engineCounted(t, r)
				},
			}.check)
		}
	}
}

// TestClusterEventsFidelityCellTowerTerminates is the liveness check for
// the shared uplink: from 0.2 cycles up these runs meet transfers whose
// remaining bits drain in less than one ulp of the current instant, which
// must complete at that instant. A medium that re-armed a wake for them
// would spin at one instant forever, so each run goes under a deadline it
// beats by orders of magnitude, and the 0.2-cycle outputs are pinned like
// the 0.1-cycle ones of TestDeterminismMatrix's events-cell-tower rows.
func TestClusterEventsFidelityCellTowerTerminates(t *testing.T) {
	const pin02 = "3087eb3689bcf2417a1d6bfd6024b5ce1a9b57619406026c07d32077c6141bc5"
	for _, cycles := range []float64{0.2, 0.5, 1.0} {
		cfgs := scenarioFleet("cell-tower", 12, 0, shoggoth.WithSeed(1), shoggoth.WithCycles(cycles), atEvents)(t)
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
			if cycles == 0.2 && runtime.GOARCH == "amd64" {
				hashesTo(pin02, devicesAndCloud)(t, out.res)
			}
		}
	}
}
