// Command shoggoth-sim runs one strategy — or every registered strategy on
// a fleet worker pool — on one dataset profile and prints the paper's
// metrics (mAP@0.5, up/down bandwidth, average FPS).
//
// Usage:
//
//	shoggoth-sim -profile ua-detrac -strategy shoggoth -duration 1440 -seed 1
//	shoggoth-sim -profile kitti -strategy all -cycles 1 -json
//	shoggoth-sim -list
//
// With -devices N (cluster mode) it instead runs N edge devices — seeds
// seed..seed+N-1 — against ONE shared cloud labeling service on a single
// virtual clock, reporting per-device results plus the shared queue's
// contention statistics:
//
//	shoggoth-sim -profile ua-detrac -strategy shoggoth -devices 8 -queue-cap 4
//
// A -scenario (registered name) or -scenario-file (custom JSON spec) picks
// a composed world instead of the plain profile: per-device workload
// variants (script phase, shuffle, stretch, domain subsets) and
// time-varying network traces (outage windows, LTE-like fading, diurnal
// load). -devices 0 runs the scenario's natural fleet size; anything
// larger tiles its device slices:
//
//	shoggoth-sim -scenario lossy-uplink -strategy shoggoth
//	shoggoth-sim -scenario hetero-fleet -queue-cap 4 -cloud-policy wfq
//	shoggoth-sim -scenario-file myworld.json -devices 6
//
// The cloud's scheduling engine is configurable in every mode:
// -cloud-policy picks the service discipline (fifo serves in arrival
// order — the default; phi-priority labels the most-drifted device first;
// wfq gives every device a fair teacher share) and -cloud-workers sizes
// the teacher pipeline pool:
//
//	shoggoth-sim -profile ua-detrac -devices 8 -queue-cap 4 -cloud-policy wfq -cloud-workers 2
//
// The cloud can also run as a multi-replica routing tier: -cloud-replicas
// sizes the teacher fleet, -cloud-router picks the dispatch rule
// (round-robin, least-loaded, domain-affinity), -cloud-admit-rate/-burst
// put a token bucket in front, -cloud-coalesce batches compatible uploads
// across devices into one teacher forward, and -cloud-cold-start prices a
// domain's first batch on each replica:
//
//	shoggoth-sim -scenario multi-cloud -strategy shoggoth
//	shoggoth-sim -devices 8 -cloud-replicas 3 -cloud-router least-loaded -cloud-coalesce 4
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"shoggoth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("shoggoth-sim: ")

	profileName := flag.String("profile", shoggoth.ProfileDETRAC, "dataset profile (see -list)")
	strategyName := flag.String("strategy", "shoggoth", "strategy: edge-only, cloud-only, prompt, ams, shoggoth or all")
	scenarioName := flag.String("scenario", "", "registered scenario (see -list); overrides -profile")
	scenarioFile := flag.String("scenario-file", "", "custom scenario JSON spec; overrides -scenario and -profile")
	duration := flag.Float64("duration", 0, "stream duration in seconds (overrides -cycles)")
	cycles := flag.Float64("cycles", 2, "stream duration in scenario-script passes")
	seed := flag.Uint64("seed", 1, "run seed")
	rate := flag.Float64("rate", 0, "fixed sampling rate in fps (0 = strategy default)")
	workers := flag.Int("workers", 0, "concurrent sessions for -strategy all (0 = GOMAXPROCS)")
	devices := flag.Int("devices", 0, "edge devices sharing one cloud labeling service (cluster mode when > 1; 0 = the scenario's natural size)")
	cloudTier := cloudFlags(flag.CommandLine)
	fidelity := flag.String("fidelity", "full", "simulation fidelity: full (real models, golden-identical), events (sparse fleet-scale mode) or sampled (seeded full-fidelity subset inside an events fleet; cluster mode only)")
	sampleFrac := flag.Float64("sample-frac", 0, "sampled fidelity: fraction of devices run at full fidelity, in (0, 1] (0 = the default fraction; needs -fidelity sampled)")
	sampleSeed := flag.Uint64("sample-seed", 0, "sampled fidelity: seed of the device-subset draw (0 = the run seed; needs -fidelity sampled)")
	engineWorkers := flag.Int("engine-workers", 0, "event-engine device-batch workers (wall-clock only; results are identical at any value; 0 = 1)")
	asJSON := flag.Bool("json", false, "emit JSON instead of text")
	list := flag.Bool("list", false, "list registered strategies, profiles, cloud policies and scenarios, then exit")
	verbose := flag.Bool("v", false, "print a wall-clock perf summary from the per-session workspace counters")
	computeTier := flag.String("compute-tier", "", "arithmetic tier: exact (frozen, golden-identical; the default) or fast (blocked fast-math kernels, parallel gradient accumulation)")
	computeLane := flag.String("compute-lane", "", "fast tier arithmetic width: float64 (default) or float32")
	accumWorkers := flag.Int("accum-workers", 0, "fast tier gradient-accumulation workers (results identical at any value; <=1 runs inline)")
	flag.Parse()

	if *list {
		printRegistries()
		return
	}

	explicit := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	kinds, err := parseStrategies(*strategyName)
	if err != nil {
		log.Fatal(err)
	}

	fid, err := parseFidelity(*fidelity)
	if err != nil {
		log.Fatal(err)
	}
	if fid == shoggoth.FidelitySampled {
		if *sampleFrac < 0 || *sampleFrac > 1 {
			log.Fatalf("-sample-frac %g out of range (0, 1]", *sampleFrac)
		}
	} else if explicit["sample-frac"] || explicit["sample-seed"] {
		log.Fatal("-sample-frac/-sample-seed need -fidelity sampled")
	}

	baseOpts := func(seed uint64) []shoggoth.Option {
		opts := []shoggoth.Option{shoggoth.WithSeed(seed), shoggoth.WithCycles(*cycles)}
		if fid == shoggoth.FidelitySampled {
			opts = append(opts, shoggoth.WithSampledFidelity(*sampleFrac, *sampleSeed))
		} else {
			opts = append(opts, shoggoth.WithFidelity(fid))
		}
		if *duration > 0 {
			opts = append(opts, shoggoth.WithDuration(*duration))
		}
		if *rate > 0 {
			opts = append(opts, shoggoth.WithFixedRate(*rate))
		}
		if *computeTier != "" {
			opts = append(opts, shoggoth.WithComputeTier(*computeTier))
		}
		if *computeLane != "" {
			opts = append(opts, shoggoth.WithComputeLane(*computeLane))
		}
		if *accumWorkers > 0 {
			opts = append(opts, shoggoth.WithAccumWorkers(*accumWorkers))
		}
		return opts
	}

	scen, err := resolveScenario(*scenarioFile, *scenarioName)
	if err != nil {
		log.Fatal(err)
	}

	if scen != nil {
		if len(kinds) != 1 {
			log.Fatal("a scenario needs a single -strategy (not \"all\")")
		}
		cfgs, err := shoggoth.ScenarioConfigs(scen, kinds[0], *devices, baseOpts(*seed)...)
		if err != nil {
			log.Fatal(err)
		}
		header := fmt.Sprintf("scenario=%s strategy=%s", scen.Name, kinds[0])
		applyCloudFlags(flag.CommandLine, *cloudTier, cfgs)
		if len(cfgs) == 1 {
			if fid == shoggoth.FidelitySampled {
				log.Fatal("-fidelity sampled needs a device cluster (a multi-device scenario or -devices > 1): it samples across a fleet run by the event engine")
			}
			runFleet(cfgs, *workers, *asJSON, *verbose, header, *seed)
			return
		}
		runCluster(cfgs, clusterParams{seed: *seed, engineWorkers: *engineWorkers}, *asJSON, *verbose, header)
		return
	}

	profile, err := shoggoth.ProfileByName(*profileName)
	if err != nil {
		log.Fatal(err)
	}

	if *devices > 1 {
		if len(kinds) != 1 {
			log.Fatal("-devices needs a single -strategy (not \"all\")")
		}
		cfgs := make([]shoggoth.Config, *devices)
		for i := range cfgs {
			cfgs[i] = shoggoth.NewConfig(kinds[0], profile, baseOpts(*seed+uint64(i))...)
			cfgs[i].DeviceID = fmt.Sprintf("edge-%d", i+1)
		}
		applyCloudFlags(flag.CommandLine, *cloudTier, cfgs)
		header := fmt.Sprintf("profile=%s strategy=%s", profile.Name, kinds[0])
		runCluster(cfgs, clusterParams{seed: *seed, engineWorkers: *engineWorkers}, *asJSON, *verbose, header)
		return
	}

	if fid == shoggoth.FidelitySampled {
		log.Fatal("-fidelity sampled needs a device cluster (a multi-device scenario or -devices > 1): it samples across a fleet run by the event engine")
	}
	cfgs := shoggoth.Grid([]*shoggoth.Profile{profile}, kinds, baseOpts(*seed)...)
	applyCloudFlags(flag.CommandLine, *cloudTier, cfgs)
	runFleet(cfgs, *workers, *asJSON, *verbose, "profile="+profile.Name, *seed)
}

// cloudFlags registers the cloud tier flags on fs, bound to the fields of
// the returned tier.
func cloudFlags(fs *flag.FlagSet) *shoggoth.CloudTier {
	t := new(shoggoth.CloudTier)
	fs.IntVar(&t.Service.QueueCap, "queue-cap", 0, "cloud labeling queue capacity in batches per replica (0 = unbounded)")
	fs.StringVar(&t.Service.Policy, "cloud-policy", "fifo",
		"cloud scheduling policy: "+strings.Join(shoggoth.CloudPolicies(), ", "))
	fs.IntVar(&t.Service.Workers, "cloud-workers", 1, "cloud teacher pipeline workers per replica (concurrent label batches)")
	fs.IntVar(&t.Replicas, "cloud-replicas", 1, "teacher replicas in the cloud routing tier")
	fs.StringVar(&t.Router, "cloud-router", "",
		"cloud replica router: "+strings.Join(shoggoth.CloudRouters(), ", ")+" (empty = round-robin)")
	fs.Float64Var(&t.AdmitRatePerSec, "cloud-admit-rate", 0, "token-bucket admission rate in batches/sec (0 = no admission control)")
	fs.Float64Var(&t.AdmitBurst, "cloud-admit-burst", 0, "token-bucket burst capacity in batches (<1 clamps to 1)")
	fs.IntVar(&t.Service.Coalesce, "cloud-coalesce", 0, "coalesce up to this many compatible batches per teacher forward (cross-device batching; <2 = off)")
	fs.Float64Var(&t.ColdStartSec, "cloud-cold-start", 0, "cold-start penalty in seconds for a domain's first batch on a replica")
	return t
}

// applyCloudFlags copies onto every device config the cloud flags typed on
// fs, taking their values from t. Scenario files stamp a tier into each
// config, and a flag left at its default must not clobber it.
func applyCloudFlags(fs *flag.FlagSet, t shoggoth.CloudTier, cfgs []shoggoth.Config) {
	fs.Visit(func(f *flag.Flag) {
		for i := range cfgs {
			c := &cfgs[i].Cloud
			switch f.Name {
			case "queue-cap":
				c.Service.QueueCap = t.Service.QueueCap
			case "cloud-policy":
				c.Service.Policy = t.Service.Policy
			case "cloud-workers":
				c.Service.Workers = t.Service.Workers
			case "cloud-replicas":
				c.Replicas = t.Replicas
			case "cloud-router":
				c.Router = t.Router
			case "cloud-admit-rate":
				c.AdmitRatePerSec = t.AdmitRatePerSec
			case "cloud-admit-burst":
				c.AdmitBurst = t.AdmitBurst
			case "cloud-coalesce":
				c.Service.Coalesce = t.Service.Coalesce
			case "cloud-cold-start":
				c.ColdStartSec = t.ColdStartSec
			}
		}
	})
}

// resolveScenario loads the scenario named on the command line (a file
// spec wins over a registered name); nil means plain-profile mode.
func resolveScenario(file, name string) (*shoggoth.Scenario, error) {
	if file != "" {
		return shoggoth.LoadScenarioFile(file)
	}
	if name != "" {
		return shoggoth.ScenarioByName(name)
	}
	return nil, nil
}

// printRegistries lists every registry with its one-line descriptions —
// nothing here is hand-maintained; the tables come from the registries
// themselves.
func printRegistries() {
	sections := []struct {
		title   string
		entries []shoggoth.RegistryEntry
	}{
		{"strategies (-strategy)", shoggoth.StrategyEntries()},
		{"profiles (-profile)", shoggoth.ProfileEntries()},
		{"cloud policies (-cloud-policy)", shoggoth.CloudPolicyEntries()},
		{"cloud routers (-cloud-router)", shoggoth.CloudRouterEntries()},
		{"scenarios (-scenario)", shoggoth.ScenarioEntries()},
		{"fidelities (-fidelity)", []shoggoth.RegistryEntry{
			{Name: "full", Summary: "real student SGD, every frame materialized — the golden-identical default"},
			{Name: "events", Summary: "fleet-scale sparse mode: analytic costing, no student deployed, frames priced not executed"},
			{Name: "sampled", Summary: "seeded device subset at full fidelity inside an events fleet; fleet accuracy extrapolated with a bootstrap error bound (-sample-frac, -sample-seed; cluster mode only)"},
		}},
	}
	for i, s := range sections {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("%s:\n", s.title)
		for _, e := range s.entries {
			fmt.Printf("  %-15s %s\n", e.Name, e.Summary)
		}
	}
}

// runFleet executes independent sessions on a worker pool and prints the
// strategy table.
func runFleet(cfgs []shoggoth.Config, workers int, asJSON, verbose bool, header string, seed uint64) {
	// The fleet bounds concurrency and pretrains one student per profile,
	// so every strategy deploys the identical model.
	fleet := &shoggoth.Fleet{Workers: workers}
	if verbose {
		fleet.Perf = &shoggoth.PerfCounters{}
		// Give every session's counters real timestamps; the library
		// default is no clock at all (Results are unaffected either way).
		clock := shoggoth.WallClock()
		for i := range cfgs {
			cfgs[i].PerfClock = clock
		}
	}
	all, err := fleet.Run(context.Background(), cfgs)
	if err != nil {
		log.Fatal(err)
	}
	if verbose {
		// Diagnostics only: the counters are workspace state and never feed
		// back into Results.
		printPerf(fleet.Perf)
	}

	if asJSON {
		emitJSON(all)
		return
	}
	fmt.Printf("%s duration=%.0fs seed=%d\n\n", header, all[0].Duration, seed)
	fmt.Printf("%-11s %9s %9s %9s %8s %9s %9s %9s\n",
		"strategy", "mAP@0.5", "avgIoU", "up Kbps", "dn Kbps", "fps", "sessions", "sampled")
	for _, r := range all {
		fmt.Printf("%-11s %8.1f%% %9.3f %9.0f %8.0f %9.1f %9d %9d\n",
			r.Strategy, r.MAP50*100, r.AvgIoU, r.UpKbps, r.DownKbps, r.AvgFPS, r.Sessions, r.SampledFrames)
	}
}

// clusterParams bundles the cluster-mode knobs. Cloud-tier settings travel
// inside the device configs (the cluster adopts device 0's spec), so only
// the execution-core knobs remain here.
type clusterParams struct {
	seed          uint64
	engineWorkers int
}

// parseFidelity maps the -fidelity flag onto the Fidelity constants.
func parseFidelity(name string) (shoggoth.Fidelity, error) {
	switch strings.ToLower(name) {
	case "", "full":
		return shoggoth.FidelityFull, nil
	case "events":
		return shoggoth.FidelityEvents, nil
	case "sampled":
		return shoggoth.FidelitySampled, nil
	default:
		return "", fmt.Errorf("unknown -fidelity %q (want full, events or sampled)", name)
	}
}

// runCluster steps prebuilt device configs against one shared cloud
// labeling service and prints per-device results plus the queue's
// contention statistics.
func runCluster(cfgs []shoggoth.Config, p clusterParams, asJSON, verbose bool, header string) {
	cluster := &shoggoth.Cluster{EngineWorkers: p.engineWorkers}
	if verbose {
		cluster.Perf = &shoggoth.PerfCounters{}
		clock := shoggoth.WallClock()
		for i := range cfgs {
			cfgs[i].PerfClock = clock
		}
	}
	res, err := cluster.Run(context.Background(), cfgs)
	if err != nil {
		log.Fatal(err)
	}
	if verbose {
		printPerf(cluster.Perf)
	}

	if asJSON {
		emitJSON(res)
		return
	}
	// The service knobs as the tier resolved them; replicas and router as
	// the run reports them.
	svc := cfgs[0].Cloud.Resolved().Service
	n := len(cfgs)
	fmt.Printf("%s devices=%d duration=%.0fs seeds=%d..%d queue-cap=%d policy=%s workers=%d replicas=%d router=%s\n\n",
		header, n, res.Devices[0].Duration, p.seed, p.seed+uint64(n)-1, svc.QueueCap, svc.Policy, svc.Workers,
		len(res.Cloud.Replicas), res.Cloud.Router)
	fmt.Printf("%-8s %-10s %9s %9s %8s %9s %9s %9s %10s %10s\n",
		"device", "profile", "mAP@0.5", "up Kbps", "fps", "sessions", "batches", "dropped", "qdelay(s)", "qmax(s)")
	for _, r := range res.Devices {
		fmt.Printf("%-8s %-10s %8.1f%% %9.0f %8.1f %9d %9d %9d %10.3f %10.3f\n",
			r.Device, r.Profile, r.MAP50*100, r.UpKbps, r.AvgFPS, r.Sessions,
			r.CloudBatches, r.CloudDroppedBatches, r.CloudQueueDelayMeanSec, r.CloudQueueDelayMaxSec)
	}
	c := res.Cloud
	fmt.Printf("\ncloud: %d batches (%d dropped), queue delay mean %.3fs max %.3fs, teacher busy %.1fs (%.1f%% utilization)\n",
		c.Batches, c.DroppedBatches, c.QueueDelayMeanSec, c.QueueDelayMaxSec,
		c.BusySeconds, res.Utilization()*100)
	if len(c.Replicas) > 1 {
		for i, rep := range c.Replicas {
			fmt.Printf("  replica %d: %d batches (%d dropped), qdelay mean %.3fs, busy %.1fs\n",
				i, rep.Batches, rep.DroppedBatches, rep.QueueDelayMeanSec, rep.BusySeconds)
		}
	}
	if c.AdmissionRejected > 0 {
		fmt.Printf("  admission control rejected %d batches\n", c.AdmissionRejected)
	}
	if c.CoalescedForwards > 0 {
		fmt.Printf("  %d coalesced teacher forwards covering %d batches\n", c.CoalescedForwards, c.CoalescedBatches)
	}
	if len(c.SLOClasses) > 0 {
		classes := make([]string, 0, len(c.SLOClasses))
		for name := range c.SLOClasses {
			classes = append(classes, name)
		}
		sort.Strings(classes)
		for _, name := range classes {
			sc := c.SLOClasses[name]
			fmt.Printf("  class %-10s %d batches (%.1f%% dropped), label latency p50 %.3fs p99 %.3fs\n",
				name, sc.Batches, sc.DropRate*100, sc.LabelLatencyP50Sec, sc.LabelLatencyP99Sec)
		}
	}
	fmt.Printf("  jain fairness across devices: %.3f\n", c.JainFairness)
	if s := res.Sampled; s != nil {
		fmt.Printf("sampled: %d/%d devices at full fidelity (frac %g, seed %d)\n",
			s.SampledDevices, s.FleetDevices, s.Frac, s.Seed)
		fmt.Printf("  mAP@0.5 est %.1f%% ± %.1f%% (95%% CI [%.1f%%, %.1f%%], %d bootstrap resamples)\n",
			s.MAP50.Mean*100, s.MAP50.StdErr*100, s.MAP50.Lo95*100, s.MAP50.Hi95*100, s.Resamples)
		fmt.Printf("  avgIoU  est %.3f ± %.3f (95%% CI [%.3f, %.3f])\n",
			s.AvgIoU.Mean, s.AvgIoU.StdErr, s.AvgIoU.Lo95, s.AvgIoU.Hi95)
	}
	fmt.Printf("engine: %d events over %d epochs\n", res.Engine.Events, res.Engine.Epochs)
}

func printPerf(pc *shoggoth.PerfCounters) {
	fmt.Fprintf(os.Stderr,
		"perf: %d frames inferred at %.0f frames/s wall, %d train steps at %.0f steps/s wall (%d sessions)\n",
		pc.InferFrames, pc.InferFPS(), pc.TrainSteps, pc.TrainStepsPerSec(), pc.TrainSessions)
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Fatal(err)
	}
}

func parseStrategies(name string) ([]shoggoth.StrategyKind, error) {
	if strings.EqualFold(name, "all") {
		return shoggoth.StrategyKinds(), nil
	}
	kind, err := shoggoth.ParseStrategy(name)
	if err != nil {
		return nil, err
	}
	return []shoggoth.StrategyKind{kind}, nil
}
