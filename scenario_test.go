package shoggoth_test

import (
	"testing"

	"shoggoth"
	"shoggoth/internal/netsim"
)

// TestStepOutageChangesQueueBehaviour: a time-varying trace must actually
// matter, where a constant one installed as a trace changes no byte
// (TestDeterminismMatrix/golden/constant-trace). Under periodic uplink
// blackouts uploads stall mid-transfer and bunch at recovery, so the cloud
// labeling queue sees collision bursts a constant link never produces —
// visible in cloud_queue_delay_* and dropped batches.
func TestStepOutageChangesQueueBehaviour(t *testing.T) {
	if testing.Short() {
		t.Skip("deployment runs are seconds-long; skipped with -short")
	}
	profile := detrac(t)
	run := func(mutate func(*shoggoth.Config)) *shoggoth.Results {
		cfg := shoggoth.NewConfig(shoggoth.Shoggoth, profile,
			shoggoth.WithSeed(1), shoggoth.WithCycles(0.5))
		cfg.Cloud.Service.QueueCap = 1 // any arrival during service drops
		if mutate != nil {
			mutate(&cfg)
		}
		res, err := shoggoth.Run(withStudent(cfg))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	baseline := run(nil)
	outage := run(func(c *shoggoth.Config) {
		// 80 s blackout every 120 s: multiple flushes stall inside each
		// blackout and arrive together at recovery.
		tr, err := netsim.NewStepTrace(c.Uplink,
			[]netsim.Window{{StartSec: 30, EndSec: 110, RateBps: 0}}, 120)
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
