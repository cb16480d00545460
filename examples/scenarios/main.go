// Scenarios: the same strategy under different worlds. A Scenario composes
// a workload (profile + script transforms), a network model (constant
// links or time-varying traces) and a per-device fleet layout; this
// example runs Shoggoth first in the frozen-default world ("steady"), then
// under periodic uplink blackouts ("lossy-uplink"), and finally as a
// heterogeneous three-camera fleet sharing one cloud ("hetero-fleet").
//
//	go run ./examples/scenarios            # one script pass per run
//	go run ./examples/scenarios -cycles .2 # quick smoke (CI runs this)
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"shoggoth"
)

func main() {
	cycles := flag.Float64("cycles", 1, "stream duration in scenario-script passes")
	seed := flag.Uint64("seed", 1, "run seed")
	flag.Parse()

	opts := []shoggoth.Option{shoggoth.WithSeed(*seed), shoggoth.WithCycles(*cycles)}

	// One shared cache: every run below deploys the identical pretrained
	// student per profile without paying offline pretraining again.
	var cache shoggoth.StudentCache
	fleet := &shoggoth.Fleet{Cache: &cache}

	// Part 1 — network worlds. The workload and seed are identical; only
	// the uplink differs, so every change in the table is the network's.
	fmt.Println("Shoggoth under three network worlds (same workload, same seed):")
	fmt.Printf("\n  %-14s %9s %9s %9s %9s %11s\n",
		"scenario", "mAP@0.5", "up Kbps", "batches", "dropped", "qdelay(s)")
	for _, name := range []string{"steady", "lossy-uplink", "degraded-cell"} {
		sc, err := shoggoth.ScenarioByName(name)
		if err != nil {
			log.Fatal(err)
		}
		cfgs, err := shoggoth.ScenarioConfigs(sc, shoggoth.Shoggoth, 1, opts...)
		if err != nil {
			log.Fatal(err)
		}
		cfgs[0].Cloud.Service.QueueCap = 2 // small queue: post-blackout bursts drop
		res, err := fleet.Run(context.Background(), cfgs)
		if err != nil {
			log.Fatal(err)
		}
		r := res[0]
		fmt.Printf("  %-14s %8.1f%% %9.0f %9d %9d %11.3f\n",
			name, r.MAP50*100, r.UpKbps, r.CloudBatches, r.CloudDroppedBatches,
			r.CloudQueueDelayMeanSec)
	}

	// Part 2 — a heterogeneous fleet: three dissimilar cameras (ua-detrac,
	// phase-shifted kitti, shuffled slow waymo) contending for ONE cloud
	// teacher on one virtual clock.
	sc, err := shoggoth.ScenarioByName("hetero-fleet")
	if err != nil {
		log.Fatal(err)
	}
	cfgs, err := shoggoth.ScenarioConfigs(sc, shoggoth.Shoggoth, 0, opts...)
	if err != nil {
		log.Fatal(err)
	}
	cluster := &shoggoth.Cluster{QueueCap: 2, Cache: &cache}
	res, err := cluster.Run(context.Background(), cfgs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s:\n  %s\n\n", sc.Name, sc.Summary)
	for _, d := range res.Devices {
		fmt.Printf("  %-8s %-10s mAP@0.5 %5.1f%%  batches %d (dropped %d)  qdelay mean %.3fs\n",
			d.Device, d.Profile, d.MAP50*100, d.CloudBatches, d.CloudDroppedBatches,
			d.CloudQueueDelayMeanSec)
	}
	fmt.Printf("\ncloud: %d batches (%d dropped), teacher busy %.1fs (%.1f%% utilization)\n",
		res.Cloud.Batches, res.Cloud.DroppedBatches, res.Cloud.BusySeconds, res.Utilization()*100)
	fmt.Println("\ncustom worlds load from JSON: shoggoth-sim -set scenario=\"$(cat myworld.json)\" (see scenario.Load)")
}
