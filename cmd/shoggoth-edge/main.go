// Command shoggoth-edge runs the edge half of the Shoggoth protocol against
// a shoggoth-cloud server. The edge is the simulator's own: a core.System of
// any registered strategy, on the simulator's virtual clock, whose cloud is
// the live server (rpc.Backend). The run is shoggoth-sim's run spec (-spec
// loads a file, each -set path=value edits one key), resolved to exactly
// one full-fidelity device. The device registers the run's cloud-facing
// half with the server, uploads each sample batch and waits for the reply,
// so the stream plays as fast as the round trips allow; it prints the run's
// Results as JSON.
//
//	shoggoth-edge -cloud http://localhost:8700 -set strategy=shoggoth -set profile=ua-detrac -set duration=180
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"shoggoth"
	"shoggoth/internal/core"
	"shoggoth/internal/rpc"
	"shoggoth/internal/runspec"
	"shoggoth/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it returns the exit status for args — 0 on
// success, 1 for a bad spec or a failed run, 2 for bad flags. A failed
// run prints no Results.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("shoggoth-edge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cloudURL := fs.String("cloud", "http://localhost:8700", "cloud server base URL")
	device := fs.String("device", "edge-1", "device id on the cloud")
	specFile := fs.String("spec", "", "JSON run spec file, as shoggoth-sim's (default: every key at its default)")
	var sets []string
	fs.Func("set", "edit one spec key by dot path, e.g. strategy=prompt (repeatable; the value is JSON if it parses, else a string)",
		func(kv string) error { sets = append(sets, kv); return nil })
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	cfg, err := oneDevice(*specFile, sets)
	if err == nil {
		cfg.DeviceID = *device
		var res *core.Results
		if res, err = live(cfg, *cloudURL); err == nil {
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			err = enc.Encode(res)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "shoggoth-edge: %v\n", err)
		return 1
	}
	return 0
}

// oneDevice resolves the spec to the config of the one full-fidelity
// device an edge runs, naming the key of a spec that resolves to another
// run.
func oneDevice(specFile string, sets []string) (shoggoth.Config, error) {
	spec, err := runspec.Load(specFile, sets)
	if err != nil {
		return shoggoth.Config{}, err
	}
	r, err := spec.Validate()
	if err != nil {
		return shoggoth.Config{}, err
	}
	if len(r.Kinds) != 1 {
		return shoggoth.Config{}, fmt.Errorf("spec key strategy: %s runs %d strategies; an edge runs one", spec.Strategy, len(r.Kinds))
	}
	cfgs, err := spec.Configs(r)
	if err != nil {
		return shoggoth.Config{}, err
	}
	if len(cfgs) != 1 {
		key := "devices"
		if spec.Devices == 0 {
			key = "scenario"
		}
		return shoggoth.Config{}, fmt.Errorf("spec key %s: the run has %d devices; an edge runs one", key, len(cfgs))
	}
	if f := cfgs[0].Fidelity; f != "" && f != shoggoth.FidelityFull {
		return shoggoth.Config{}, fmt.Errorf("spec key fidelity: %s; a live cloud labels uploaded frames, so an edge runs full fidelity", f)
	}
	return cfgs[0], nil
}

// live runs cfg on a core.System whose cloud is the server at cloudURL. The
// first upload that fails for any reason but backpressure ends the run. It
// refuses a fleet fidelity: events fidelity uploads no frames to label,
// and sampled fidelity is a Cluster's.
func live(cfg core.Config, cloudURL string) (*core.Results, error) {
	sched := sim.NewScheduler()
	be, err := rpc.NewBackend(cloudURL, cfg, sched)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystemOpts(&cfg, core.SystemOptions{Scheduler: sched, Cloud: be})
	if err != nil {
		return nil, err
	}
	for sys.Step() {
		if err := be.Err(); err != nil {
			return nil, err
		}
	}
	res := sys.Finish() // delivers the uploads still in flight
	if err := be.Err(); err != nil {
		return nil, err
	}
	return res, nil
}
