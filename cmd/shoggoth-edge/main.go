// Command shoggoth-edge runs the edge half of the Shoggoth protocol against
// a shoggoth-cloud server. The edge is the simulator's own: a core.System of
// any registered strategy, on the simulator's virtual clock, whose cloud is
// the live server (rpc.Backend). It uploads each sample batch and waits for
// the reply, so the stream plays as fast as the round trips allow, and it
// prints the run's Results as JSON.
//
//	shoggoth-edge -cloud http://localhost:8700 -strategy shoggoth -profile ua-detrac -duration 180
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
	"shoggoth/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it returns the exit status for args — 0 on
// success, 1 for a bad config or a failed run, 2 for bad flags. A failed
// run prints no Results.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("shoggoth-edge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cloudURL := fs.String("cloud", "http://localhost:8700", "cloud server base URL")
	device := fs.String("device", "edge-1", "device id on the cloud")
	strategyName := fs.String("strategy", "shoggoth", "strategy to run (any registered one; shoggoth-sim -list names them)")
	profileName := fs.String("profile", shoggoth.ProfileDETRAC, "dataset profile to stream")
	seed := fs.Uint64("seed", 1, "run seed")
	duration := fs.Float64("duration", 0, "stream seconds (0: two passes of the profile's scenario script)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	kind, err := shoggoth.ParseStrategy(*strategyName)
	if err != nil {
		fmt.Fprintf(stderr, "shoggoth-edge: %v\n", err)
		return 1
	}
	profile, err := shoggoth.ProfileByName(*profileName)
	if err != nil {
		fmt.Fprintf(stderr, "shoggoth-edge: %v\n", err)
		return 1
	}
	opts := []shoggoth.Option{shoggoth.WithSeed(*seed)}
	if *duration > 0 {
		opts = append(opts, shoggoth.WithDuration(*duration))
	}
	cfg := shoggoth.NewConfig(kind, profile, opts...)
	cfg.DeviceID = *device
	res, err := live(cfg, *cloudURL)
	if err != nil {
		fmt.Fprintf(stderr, "shoggoth-edge: %v\n", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "shoggoth-edge: %v\n", err)
		return 1
	}
	return 0
}

// live runs cfg on a core.System whose cloud is the server at cloudURL. The
// first upload that fails for any reason but backpressure ends the run. It
// refuses a fleet fidelity: events fidelity uploads no frames to label,
// and sampled fidelity is a Cluster's.
func live(cfg core.Config, cloudURL string) (*core.Results, error) {
	sched := sim.NewScheduler()
	be, err := rpc.NewBackend(cloudURL, cfg.Cloud, sched)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystemOpts(cfg, core.SystemOptions{Scheduler: sched, Cloud: be})
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
