package shoggoth_test

import (
	"context"
	"fmt"
	"log"

	"shoggoth"
)

// The examples run a twentieth of a scenario-script pass (36 s of stream on
// ua-detrac), so they finish inside the test suite; drop the WithCycles
// option for the full pass the paper's tables use. cache lends them the
// test binary's pretrained students (export_test.go) so they pretrain
// nothing of their own: a cached student equals a freshly pretrained one,
// so the printed numbers are what a program that leaves Config.Pretrained
// nil prints too.
var cache = &shoggoth.Students

// Run the Shoggoth strategy on the UA-DETRAC-like profile and print the
// paper's headline metrics.
func ExampleRun() {
	profile, err := shoggoth.ProfileByName(shoggoth.ProfileDETRAC)
	if err != nil {
		log.Fatal(err)
	}
	cfg := shoggoth.NewConfig(shoggoth.Shoggoth, profile,
		shoggoth.WithCycles(0.05), shoggoth.WithSeed(1))
	cfg.Pretrained = cache.Get(profile)

	res, err := shoggoth.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res)
	fmt.Printf("mAP@0.5 %.1f%%, average IoU %.3f\n", res.MAP50*100, res.AvgIoU)
	fmt.Printf("uplink %.0f Kbps (%d sampled frames), downlink %.0f Kbps\n", res.UpKbps, res.SampledFrames, res.DownKbps)
	fmt.Printf("%.1f fps, %d training sessions\n", res.AvgFPS, res.Sessions)
	// Output:
	// Shoggoth on ua-detrac: mAP@0.5=91.0% IoU=0.740 up=56Kbps down=4Kbps fps=29.5 sessions=0
	// mAP@0.5 91.0%, average IoU 0.740
	// uplink 56 Kbps (18 sampled frames), downlink 4 Kbps
	// 29.5 fps, 0 training sessions
}

// Drive a Session frame by frame with an Observer attached: per-window
// accuracy, the controller's sampling-rate commands and training sessions
// arrive as they happen. RunContext stops early if ctx is cancelled.
func ExampleSession_Observe() {
	profile, err := shoggoth.ProfileByName(shoggoth.ProfileDETRAC)
	if err != nil {
		log.Fatal(err)
	}
	cfg := shoggoth.NewConfig(shoggoth.Shoggoth, profile,
		shoggoth.WithCycles(0.05), shoggoth.WithSeed(1))
	cfg.Pretrained = cache.Get(profile)

	sess, err := shoggoth.NewSession(cfg)
	if err != nil {
		log.Fatal(err)
	}
	sess.Observe(&shoggoth.ObserverFuncs{
		WindowMAP: func(w shoggoth.WindowScore) {
			fmt.Printf("t=%4.0fs window mAP %.1f%%\n", w.Start, w.MAP*100)
		},
		RateCommand: func(pt shoggoth.RatePoint) {
			fmt.Printf("t=%4.0fs cloud sets sampling rate %.2f fps\n", pt.Time, pt.Rate)
		},
		TrainingSession: func(rec shoggoth.SessionRecord) {
			fmt.Printf("t=%4.0fs training session applied (ran %.0f–%.0fs)\n", rec.Applied, rec.Start, rec.End)
		},
	})
	res, err := sess.RunContext(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res)
	// Output:
	// t=   0s window mAP 76.4%
	// t=  10s window mAP 94.7%
	// t=  28s cloud sets sampling rate 0.45 fps
	// t=  20s window mAP 96.0%
	// t=  30s window mAP 98.3%
	// Shoggoth on ua-detrac: mAP@0.5=91.0% IoU=0.740 up=56Kbps down=4Kbps fps=29.5 sessions=0
}

// Run the paper's five strategies on one drifting traffic stream as a
// Fleet: sessions run concurrently, share one pretrained student and, on
// the same video, one rendered frame each step.
func ExampleFleet() {
	profile, err := shoggoth.ProfileByName(shoggoth.ProfileDETRAC)
	if err != nil {
		log.Fatal(err)
	}
	kinds := []shoggoth.StrategyKind{shoggoth.EdgeOnly, shoggoth.CloudOnly, shoggoth.Prompt, shoggoth.AMS, shoggoth.Shoggoth}
	cfgs := shoggoth.Grid([]*shoggoth.Profile{profile}, kinds, shoggoth.WithCycles(0.05))

	fleet := &shoggoth.Fleet{Cache: cache}
	results, err := fleet.Run(context.Background(), cfgs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-11s %8s %8s %8s %6s\n", "strategy", "mAP@0.5", "up Kbps", "dn Kbps", "fps")
	for i, kind := range kinds {
		r := results[i]
		fmt.Printf("%-11s %7.1f%% %8.0f %8.0f %6.1f\n", kind, r.MAP50*100, r.UpKbps, r.DownKbps, r.AvgFPS)
	}
	// Output:
	// strategy     mAP@0.5  up Kbps  dn Kbps    fps
	// Edge-Only      91.1%        0        0   30.0
	// Cloud-Only     85.2%     3264     3557    5.5
	// Prompt         90.8%      261       18   28.0
	// AMS            91.0%       56        0   29.5
	// Shoggoth       91.0%       56        4   29.5
}

// Run one strategy in different worlds. A Scenario composes a workload, a
// network model and a fleet layout; ScenarioConfigs turns it into one
// config per device. The same camera first sees a steady network, then a
// degraded cell; last, three dissimilar cameras share one cloud teacher.
func ExampleScenarioConfigs() {
	opts := []shoggoth.Option{shoggoth.WithSeed(1), shoggoth.WithCycles(0.05), shoggoth.WithFixedRate(2)}
	fleet := &shoggoth.Fleet{Cache: cache}
	for _, name := range []string{"steady", "degraded-cell"} {
		sc, err := shoggoth.ScenarioByName(name)
		if err != nil {
			log.Fatal(err)
		}
		cfgs, err := shoggoth.ScenarioConfigs(sc, shoggoth.Shoggoth, 1, opts...)
		if err != nil {
			log.Fatal(err)
		}
		res, err := fleet.Run(context.Background(), cfgs)
		if err != nil {
			log.Fatal(err)
		}
		r := res[0]
		fmt.Printf("%-13s mAP@0.5 %5.1f%%  up %3.0f Kbps  batches %d (dropped %d)\n",
			name, r.MAP50*100, r.UpKbps, r.CloudBatches, r.CloudDroppedBatches)
	}

	sc, err := shoggoth.ScenarioByName("hetero-fleet")
	if err != nil {
		log.Fatal(err)
	}
	cfgs, err := shoggoth.ScenarioConfigs(sc, shoggoth.Shoggoth, 0, opts...)
	if err != nil {
		log.Fatal(err)
	}
	cluster := &shoggoth.Cluster{Cache: cache}
	res, err := cluster.Run(context.Background(), cfgs)
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range res.Devices {
		fmt.Printf("%-8s %-9s mAP@0.5 %5.1f%%  batches %d (dropped %d)\n",
			d.Device, d.Profile, d.MAP50*100, d.CloudBatches, d.CloudDroppedBatches)
	}
	// Output:
	// steady        mAP@0.5  90.8%  up 261 Kbps  batches 3 (dropped 0)
	// degraded-cell mAP@0.5  90.8%  up 261 Kbps  batches 2 (dropped 0)
	// edge-1   ua-detrac mAP@0.5  90.8%  batches 3 (dropped 0)
	// edge-2   kitti     mAP@0.5  99.8%  batches 3 (dropped 0)
	// edge-3   waymo     mAP@0.5  82.4%  batches 3 (dropped 0)
}

// Six cameras share one cloud teacher whose queue holds three batches and
// serves them by weighted fair queueing. Each device's Config.Cloud
// describes the tier; a Cluster runs all devices on one virtual clock, so
// every upload contends for the same teacher, and the cameras whose batches
// find the queue full lose them.
func ExampleCluster() {
	profile, err := shoggoth.ProfileByName(shoggoth.ProfileDETRAC)
	if err != nil {
		log.Fatal(err)
	}
	cfgs := make([]shoggoth.Config, 6)
	for i := range cfgs {
		cfgs[i] = shoggoth.NewConfig(shoggoth.Shoggoth, profile,
			shoggoth.WithSeed(uint64(i+1)), shoggoth.WithCycles(0.05), shoggoth.WithFixedRate(2))
		cfgs[i].DeviceID = fmt.Sprintf("cam-%d", i+1)
		cfgs[i].Cloud.Service.QueueCap = 3
		cfgs[i].Cloud.Service.Policy = "wfq"
	}
	cluster := &shoggoth.Cluster{Cache: cache}
	res, err := cluster.Run(context.Background(), cfgs)
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range res.Devices {
		fmt.Printf("%s mAP@0.5 %5.1f%%  batches %d (dropped %d)  queue delay mean %.3fs\n",
			d.Device, d.MAP50*100, d.CloudBatches, d.CloudDroppedBatches, d.CloudQueueDelayMeanSec)
	}
	c := res.Cloud
	fmt.Printf("cloud: %d batches, %d dropped, teacher %.1f%% busy\n", c.Batches, c.DroppedBatches, res.Utilization()*100)
	// Output:
	// cam-1 mAP@0.5  90.8%  batches 3 (dropped 0)  queue delay mean 0.000s
	// cam-2 mAP@0.5  86.4%  batches 3 (dropped 0)  queue delay mean 0.900s
	// cam-3 mAP@0.5  79.3%  batches 3 (dropped 0)  queue delay mean 1.800s
	// cam-4 mAP@0.5  91.9%  batches 0 (dropped 3)  queue delay mean 0.000s
	// cam-5 mAP@0.5  92.6%  batches 0 (dropped 3)  queue delay mean 0.000s
	// cam-6 mAP@0.5  87.5%  batches 0 (dropped 3)  queue delay mean 0.000s
	// cloud: 9 batches, 9 dropped, teacher 22.5% busy
}
