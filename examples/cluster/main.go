// One cloud, many cameras: a Cluster steps N edge deployments against a
// single shared labeling service on one virtual clock. Every uploaded
// sample batch contends for the shared teacher pool, so queueing delay
// shows up in label latency, and each device's sampling-rate commands
// reflect cluster load rather than a private cloud.
//
// The service discipline is a pluggable scheduling policy: this example
// runs the same fleet twice — first FIFO (arrival order, the default),
// then weighted fair queueing — and compares how the queue treats each
// camera.
//
//	go run ./examples/cluster
package main

import (
	"context"
	"fmt"
	"log"

	"shoggoth"
)

func main() {
	profile, err := shoggoth.ProfileByName(shoggoth.ProfileDETRAC)
	if err != nil {
		log.Fatal(err)
	}

	// Six cameras on the same intersection profile, each with its own
	// drifting stream (per-device seeds), all labeled by ONE cloud teacher
	// whose queue holds at most three batches: overload drops work instead
	// of serving arbitrarily stale labels.
	const devices = 6
	cfgs := make([]shoggoth.Config, devices)
	for i := range cfgs {
		cfgs[i] = shoggoth.NewConfig(shoggoth.Shoggoth, profile,
			shoggoth.WithSeed(uint64(i+1)), shoggoth.WithDuration(240))
		cfgs[i].DeviceID = fmt.Sprintf("cam-%d", i+1)
	}

	// One shared cache: both policy runs deploy the identical pretrained
	// students without paying the offline pretraining twice.
	var cache shoggoth.StudentCache
	for _, policy := range []string{"fifo", "wfq"} {
		cluster := &shoggoth.Cluster{QueueCap: 3, Policy: policy, Cache: &cache}
		res, err := cluster.Run(context.Background(), cfgs)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("%d cameras sharing one cloud labeling service (queue cap 3, policy %s)\n\n",
			devices, policy)
		for _, d := range res.Devices {
			fmt.Printf("  %-6s mAP@0.5 %5.1f%%  batches %d (dropped %d)  queue delay mean %.3fs max %.3fs\n",
				d.Device, d.MAP50*100, d.CloudBatches, d.CloudDroppedBatches,
				d.CloudQueueDelayMeanSec, d.CloudQueueDelayMaxSec)
		}
		c := res.Cloud
		fmt.Printf("\ncloud: %d batches served, %d dropped at the full queue\n", c.Batches, c.DroppedBatches)
		fmt.Printf("       queue delay mean %.3fs, worst %.3fs; teacher busy %.1fs (%.1f%% of the run)\n\n",
			c.QueueDelayMeanSec, c.QueueDelayMaxSec, c.BusySeconds, res.Utilization()*100)
	}
	fmt.Println("try -set cloud.service.policy=phi-priority -set cloud.service.workers=2 on cmd/shoggoth-sim;")
	fmt.Println("the same contention-aware engine serves real edges too: see internal/rpc")
}
