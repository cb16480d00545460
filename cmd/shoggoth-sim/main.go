// Command shoggoth-sim runs one strategy, or all of them side by side, on a
// dataset profile, a scenario world or a cluster of devices sharing one
// cloud tier, and prints the paper's metrics (mAP@0.5, up/down bandwidth,
// average FPS), or with its exp key the paper's tables and figures. A run
// is one JSON spec with runspec.Spec's keys: -spec loads a file, each -set
// path=value edits one key by dot path (the value is JSON if it parses,
// else a string), and -print-spec prints the result, which -spec replays:
//
//	shoggoth-sim -set strategy=all -set duration=300 -set seed=7
//	shoggoth-sim -set scenario=hetero-fleet -set cloud.service.policy=wfq -print-spec > run.json
//	shoggoth-sim -spec run.json -json
//	shoggoth-sim -set exp=table3 -set cycles=1
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"shoggoth"
	"shoggoth/internal/experiments"
	"shoggoth/internal/runspec"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it returns the exit status for args — 0 on
// success, 1 for a bad spec or a failed run, 2 for bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("shoggoth-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specFile := fs.String("spec", "", "JSON run spec file (-print-spec shows its keys; default: every key at its default)")
	var sets []string
	fs.Func("set", "edit one spec key by dot path, e.g. cloud.service.policy=wfq (repeatable; the value is JSON if it parses, else a string)",
		func(kv string) error { sets = append(sets, kv); return nil })
	printSpec := fs.Bool("print-spec", false, "print the resolved spec and exit")
	asJSON := fs.Bool("json", false, "emit JSON instead of text")
	list := fs.Bool("list", false, "list registered strategies, profiles, cloud policies, scenarios and experiments, then exit")
	verbose := fs.Bool("v", false, "print a wall-clock perf summary from the per-session workspace counters")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *list {
		printRegistries(stdout)
		return 0
	}
	if err := simulate(*specFile, sets, *printSpec, *asJSON, *verbose, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "shoggoth-sim: %v\n", err)
		return 1
	}
	return 0
}

// simulate loads and validates the spec, then prints it or runs it.
func simulate(specFile string, sets []string, printSpec, asJSON, verbose bool, stdout, stderr io.Writer) error {
	spec, err := runspec.Load(specFile, sets)
	if err != nil {
		return err
	}
	r, err := spec.Validate()
	if err != nil {
		return err
	}
	if printSpec {
		return emitJSON(stdout, spec)
	}
	if len(r.Experiments) > 0 {
		if asJSON || verbose {
			return errors.New("-json and -v: the experiments (spec key exp) print text tables, no JSON and no perf summary")
		}
		return experiments.Run(stdout, r.Experiments, r.Mode, shoggoth.WallClock())
	}
	cfgs, err := spec.Configs(r)
	if err != nil {
		return err
	}
	var perf *shoggoth.PerfCounters
	if verbose {
		// Diagnostics only: real timestamps never feed back into Results.
		perf = &shoggoth.PerfCounters{}
		clock := shoggoth.WallClock()
		for i := range cfgs {
			cfgs[i].PerfClock = clock
		}
	}
	// One strategy on several devices shares a cloud tier.
	cluster := len(r.Kinds) == 1 && len(cfgs) > 1
	header := "profile=" + r.Profile.Name
	if r.Scenario != nil {
		header = "scenario=" + r.Scenario.Name
	}
	if r.Scenario != nil || cluster {
		header += " strategy=" + r.Kinds[0].String()
	}
	if cluster {
		err = runCluster(stdout, cfgs, spec, perf, asJSON, header)
	} else {
		err = runFleet(stdout, cfgs, spec, perf, asJSON, header)
	}
	if err == nil && perf != nil {
		fmt.Fprintf(stderr,
			"perf: %d frames inferred (%d shared) at %.0f frames/s wall, %d train steps at %.0f steps/s wall (%d sessions)\n",
			perf.InferFrames, perf.InferShared, perf.InferFPS(), perf.TrainSteps, perf.TrainStepsPerSec(), perf.TrainSessions)
	}
	return err
}

// printRegistries lists every registry with its one-line descriptions.
func printRegistries(w io.Writer) {
	sections := []struct {
		title   string
		entries []shoggoth.RegistryEntry
	}{
		{"strategies (strategy)", shoggoth.StrategyEntries()},
		{"profiles (profile)", shoggoth.ProfileEntries()},
		{"cloud policies (cloud.service.policy)", shoggoth.CloudPolicyEntries()},
		{"cloud routers (cloud.router)", shoggoth.CloudRouterEntries()},
		{"scenarios (scenario)", shoggoth.ScenarioEntries()},
		{"experiments (exp)", experimentEntries()},
		{"fidelities (fidelity)", []shoggoth.RegistryEntry{
			{Name: "full", Summary: "real student SGD, every frame materialized — the golden-identical default"},
			{Name: "events", Summary: "fleet-scale sparse mode: analytic costing, no student deployed, frames priced not executed"},
			{Name: "sampled", Summary: "seeded device subset at full fidelity inside an events fleet; fleet accuracy extrapolated with a bootstrap error bound (sample_frac, sample_seed; cluster mode only)"},
		}},
	}
	for i, s := range sections {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%s:\n", s.title)
		for _, e := range s.entries {
			fmt.Fprintf(w, "  %-15s %s\n", e.Name, e.Summary)
		}
	}
}

// experimentEntries lists the registered experiments, in the order exp=all
// runs them.
func experimentEntries() []shoggoth.RegistryEntry {
	all, _ := experiments.Select("all") // "all" always resolves
	var out []shoggoth.RegistryEntry
	for _, e := range all {
		out = append(out, shoggoth.RegistryEntry{Name: e.Name, Summary: e.Summary})
	}
	return out
}

// runFleet runs independent sessions on a worker pool, each strategy on the
// same pretrained student, and prints the strategy table.
func runFleet(w io.Writer, cfgs []shoggoth.Config, spec runspec.Spec, perf *shoggoth.PerfCounters, asJSON bool, header string) error {
	all, err := (&shoggoth.Fleet{Workers: spec.Workers, Perf: perf}).Run(context.Background(), cfgs)
	if err != nil {
		return err
	}
	if asJSON {
		return emitJSON(w, all)
	}
	fmt.Fprintf(w, "%s duration=%.0fs seed=%d\n\n", header, all[0].Duration, spec.Seed)
	fmt.Fprintf(w, "%-11s %9s %9s %9s %8s %9s %9s %9s\n",
		"strategy", "mAP@0.5", "avgIoU", "up Kbps", "dn Kbps", "fps", "sessions", "sampled")
	for _, r := range all {
		fmt.Fprintf(w, "%-11s %8.1f%% %9.3f %9.0f %8.0f %9.1f %9d %9d\n",
			r.Strategy, r.MAP50*100, r.AvgIoU, r.UpKbps, r.DownKbps, r.AvgFPS, r.Sessions, r.SampledFrames)
	}
	return nil
}

// runCluster runs the devices on one shared cloud tier and prints
// per-device results plus the tier's contention statistics.
func runCluster(w io.Writer, cfgs []shoggoth.Config, spec runspec.Spec, perf *shoggoth.PerfCounters, asJSON bool, header string) error {
	res, err := (&shoggoth.Cluster{EngineWorkers: spec.Workers, Perf: perf}).Run(context.Background(), cfgs)
	if err != nil {
		return err
	}
	if asJSON {
		return emitJSON(w, res)
	}
	// The service knobs as the tier resolved them; replicas and router as
	// the run reports them.
	svc := cfgs[0].Cloud.Resolved().Service
	n := len(cfgs)
	fmt.Fprintf(w, "%s devices=%d duration=%.0fs seeds=%d..%d queue-cap=%d policy=%s workers=%d replicas=%d router=%s\n\n",
		header, n, res.Devices[0].Duration, spec.Seed, spec.Seed+uint64(n)-1, svc.QueueCap, svc.Policy, svc.Workers,
		len(res.Cloud.Replicas), res.Cloud.Router)
	fmt.Fprintf(w, "%-8s %-10s %9s %9s %8s %9s %9s %9s %10s %10s\n",
		"device", "profile", "mAP@0.5", "up Kbps", "fps", "sessions", "batches", "dropped", "qdelay(s)", "qmax(s)")
	for _, r := range res.Devices {
		fmt.Fprintf(w, "%-8s %-10s %8.1f%% %9.0f %8.1f %9d %9d %9d %10.3f %10.3f\n",
			r.Device, r.Profile, r.MAP50*100, r.UpKbps, r.AvgFPS, r.Sessions,
			r.CloudBatches, r.CloudDroppedBatches, r.CloudQueueDelayMeanSec, r.CloudQueueDelayMaxSec)
	}
	c := res.Cloud
	fmt.Fprintf(w, "\ncloud: %d batches (%d dropped), queue delay mean %.3fs max %.3fs, teacher busy %.1fs (%.1f%% utilization)\n",
		c.Batches, c.DroppedBatches, c.QueueDelayMeanSec, c.QueueDelayMaxSec,
		c.BusySeconds, res.Utilization()*100)
	if len(c.Replicas) > 1 {
		for i, rep := range c.Replicas {
			fmt.Fprintf(w, "  replica %d: %d batches (%d dropped), qdelay mean %.3fs, busy %.1fs\n",
				i, rep.Batches, rep.DroppedBatches, rep.QueueDelayMeanSec, rep.BusySeconds)
		}
	}
	if c.AdmissionRejected > 0 {
		fmt.Fprintf(w, "  admission control rejected %d batches\n", c.AdmissionRejected)
	}
	if c.CoalescedForwards > 0 {
		fmt.Fprintf(w, "  %d coalesced teacher forwards covering %d batches\n", c.CoalescedForwards, c.CoalescedBatches)
	}
	classes := make([]string, 0, len(c.SLOClasses))
	for name := range c.SLOClasses {
		classes = append(classes, name)
	}
	sort.Strings(classes)
	for _, name := range classes {
		sc := c.SLOClasses[name]
		fmt.Fprintf(w, "  class %-10s %d batches (%.1f%% dropped), label latency p50 %.3fs p99 %.3fs\n",
			name, sc.Batches, sc.DropRate*100, sc.LabelLatencyP50Sec, sc.LabelLatencyP99Sec)
	}
	fmt.Fprintf(w, "  jain fairness across devices: %.3f\n", c.JainFairness)
	if s := res.Sampled; s != nil {
		fmt.Fprintf(w, "sampled: %d/%d devices at full fidelity (frac %g, seed %d)\n",
			s.SampledDevices, s.FleetDevices, s.Frac, s.Seed)
		fmt.Fprintf(w, "  mAP@0.5 est %.1f%% ± %.1f%% (95%% CI [%.1f%%, %.1f%%], %d bootstrap resamples)\n",
			s.MAP50.Mean*100, s.MAP50.StdErr*100, s.MAP50.Lo95*100, s.MAP50.Hi95*100, s.Resamples)
		fmt.Fprintf(w, "  avgIoU  est %.3f ± %.3f (95%% CI [%.3f, %.3f])\n",
			s.AvgIoU.Mean, s.AvgIoU.StdErr, s.AvgIoU.Lo95, s.AvgIoU.Hi95)
	}
	fmt.Fprintf(w, "engine: %d events over %d epochs\n", res.Engine.Events, res.Engine.Epochs)
	return nil
}

func emitJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
