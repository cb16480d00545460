package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"shoggoth"
)

// FleetPerfRecord is one fleet-scale measurement: a rush-hour cluster at
// events fidelity, driven by either the discrete-event engine or the
// legacy frame stepper, at a given device count.
type FleetPerfRecord struct {
	Devices int    `json:"devices"`
	Engine  string `json:"engine"`
	// VirtualSec is the simulated horizon; WallSec what it cost to run.
	VirtualSec float64 `json:"virtual_sec"`
	WallSec    float64 `json:"wall_sec"`
	// Events counts discrete events executed: for the event engine the
	// EngineInfo total (frames + device-local + shared events); for the
	// stepper the frames stepped (each Step executes its due events
	// inline), the closest observable equivalent.
	Events       int64   `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	// Truncated marks stepper rows measured on a shortened virtual horizon:
	// the stepper's O(devices) scan per frame makes the full horizon
	// unbenchable at fleet scale. Events/sec is a rate, so rows stay
	// comparable; wall seconds are not.
	Truncated bool `json:"truncated,omitempty"`
}

// fleetPlan is one device-count cell of the fleet benchmark. The stepper
// horizon shrinks with fleet size (marked Truncated) so each stepper row
// still costs tens of seconds, not hours.
type fleetPlan struct {
	devices       int
	engineCycles  float64
	stepperCycles float64
}

var fleetPlans = []fleetPlan{
	{devices: 1_000, engineCycles: 0.05, stepperCycles: 0.05},
	{devices: 10_000, engineCycles: 0.05, stepperCycles: 0.002},
	{devices: 100_000, engineCycles: 0.02, stepperCycles: 0.0001},
}

// measureFleet times rush-hour clusters at 1k/10k/100k devices, events
// fidelity, event engine vs legacy frame stepper.
func measureFleet() ([]FleetPerfRecord, error) {
	sc, err := shoggoth.ScenarioByName("rush-hour")
	if err != nil {
		return nil, err
	}
	var out []FleetPerfRecord
	for _, plan := range fleetPlans {
		for _, engine := range []string{shoggoth.EngineEvent, shoggoth.EngineFrameStep} {
			cycles := plan.engineCycles
			if engine == shoggoth.EngineFrameStep {
				cycles = plan.stepperCycles
			}
			cfgs, err := shoggoth.ScenarioConfigs(sc, shoggoth.Shoggoth, plan.devices,
				shoggoth.WithSeed(11), shoggoth.WithCycles(cycles),
				shoggoth.WithFidelity(shoggoth.FidelityEvents))
			if err != nil {
				return nil, err
			}
			for i := range cfgs {
				cfgs[i].UploadMaxWaitSec = 5 // short horizons must still exercise the cloud path
			}
			start := time.Now()
			res, err := (&shoggoth.Cluster{Engine: engine}).Run(context.Background(), cfgs)
			if err != nil {
				return nil, fmt.Errorf("fleet bench %s @ %d devices: %w", engine, plan.devices, err)
			}
			wall := time.Since(start).Seconds()

			rec := FleetPerfRecord{
				Devices:    plan.devices,
				Engine:     engine,
				VirtualSec: cfgs[0].DurationSec,
				WallSec:    round2(wall),
				Truncated:  engine == shoggoth.EngineFrameStep && cycles != plan.engineCycles,
			}
			if res.Engine != nil {
				rec.Events = res.Engine.Events
			} else {
				for _, d := range res.Devices {
					rec.Events += int64(d.FramesTotal)
				}
			}
			if wall > 0 {
				rec.EventsPerSec = round2(float64(rec.Events) / wall)
			}
			out = append(out, rec)
			fmt.Printf("perf: fleet %-10s %6dd %7.1fvs %7.1fs wall  %12d events  %12.0f ev/s%s\n",
				engine, plan.devices, rec.VirtualSec, wall, rec.Events, rec.EventsPerSec,
				map[bool]string{true: "  (truncated horizon)"}[rec.Truncated])
		}
	}
	return out, nil
}

// serialMergeBaseline100k freezes the 100k-device event-engine throughput
// (events/sec) measured before the hierarchical outbox merge and analytic
// cloud costing landed — the serial device-index drain with an executed
// teacher, the best the engine could then do on this workload. The
// recomputed speedup in BENCH_core.json compares the capped fleet-scale
// operating point (measureFleetCapped) against this constant, so the
// rebuild's gain can never silently go stale.
const serialMergeBaseline100k = 605_994.53

// Fleet1MPerfRecord is one capped operating-point measurement: a rush-hour
// cluster at events fidelity in AggregateOnly mode on the repo benchmark's
// fleet_fifo tier shape. The -perf million-device run additionally records the engine's
// wall-clock phase split so the merge tree's share of the run is visible
// in the trajectory; the 100k acceptance record and the CI smoke reuse the
// same shape without phases.
type Fleet1MPerfRecord struct {
	Devices      int     `json:"devices"`
	VirtualSec   float64 `json:"virtual_sec"`
	WallSec      float64 `json:"wall_sec"`
	Events       int64   `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	// Epochs is the engine's iteration count. Events/sec says how fast events
	// ran; epochs says how many times the engine had to stop to run them. A
	// fleet whose devices all flush on the same frames (this shape: one 5 s
	// deadline, 14.4 virtual s at 100k) needs a dozen or so, which is why its
	// events/sec barely moves when devices sleep between uploads.
	Epochs int64 `json:"epochs,omitempty"`
	// ServedShare is served ÷ offered teacher batches. A run that drops most
	// of what it is offered times the drop path, not dispatch; the smoke
	// gate refuses one below minServedShare.
	ServedShare float64 `json:"served_share"`
	// Phase split in wall seconds, and the merge phase's share of the three.
	// Only the -perf 1M run wires the perf clock; the CI smoke leaves these out.
	AdvanceSec      float64 `json:"advance_sec,omitempty"`
	MergeSec        float64 `json:"merge_sec,omitempty"`
	SerialSec       float64 `json:"serial_sec,omitempty"`
	MergePhaseShare float64 `json:"merge_phase_share,omitempty"`
}

// minServedShare is the smoke gate's floor on ServedShare.
const minServedShare = 0.5

// fleetCluster builds the canonical fleet-scale measurement cluster: rush
// hour at events fidelity, uploads flushed inside the horizon, on the tier
// shape of the repo benchmark's fleet_fifo workload (8 replicas × 32 workers,
// 4096 batches of queue each) so the run times dispatch rather than drops and
// pending state stays O(cap) at any fleet size.
func fleetCluster(devices int, cycles float64) ([]shoggoth.Config, *shoggoth.Cluster, error) {
	sc, err := shoggoth.ScenarioByName("rush-hour")
	if err != nil {
		return nil, nil, err
	}
	cfgs, err := shoggoth.ScenarioConfigs(sc, shoggoth.Shoggoth, devices,
		shoggoth.WithSeed(11), shoggoth.WithCycles(cycles),
		shoggoth.WithFidelity(shoggoth.FidelityEvents))
	if err != nil {
		return nil, nil, err
	}
	for i := range cfgs {
		cfgs[i].UploadMaxWaitSec = 5
	}
	return cfgs, &shoggoth.Cluster{AggregateOnly: true, Replicas: 8 * ((devices + 19_999) / 20_000), Workers: 32, QueueCap: 4096}, nil
}

// servedShare is served ÷ offered batches (0 when nothing was offered).
func servedShare(c shoggoth.CloudStats) float64 {
	offered := c.Batches + c.DroppedBatches
	if offered == 0 {
		return 0
	}
	return float64(c.Batches) / float64(offered)
}

// measureFleet1M runs the million-device cluster once and records its
// throughput and engine phase split.
func measureFleet1M() (Fleet1MPerfRecord, error) {
	const devices = 1_000_000
	cfgs, cluster, err := fleetCluster(devices, 0.01)
	if err != nil {
		return Fleet1MPerfRecord{}, err
	}
	clock := shoggoth.WallClock()
	for i := range cfgs {
		cfgs[i].PerfClock = clock
	}
	var phases shoggoth.EnginePhases
	cluster.Phases = &phases

	start := time.Now()
	res, err := cluster.Run(context.Background(), cfgs)
	if err != nil {
		return Fleet1MPerfRecord{}, fmt.Errorf("fleet 1M bench: %w", err)
	}
	wall := time.Since(start).Seconds()

	rec := Fleet1MPerfRecord{
		Devices:     devices,
		VirtualSec:  cfgs[0].DurationSec,
		WallSec:     round2(wall),
		Events:      res.Engine.Events,
		Epochs:      res.Engine.Epochs,
		ServedShare: servedShare(res.Cloud),
		AdvanceSec:  round2(phases.AdvanceSec),
		MergeSec:    round2(phases.MergeSec),
		SerialSec:   round2(phases.SerialSec),
	}
	if wall > 0 {
		rec.EventsPerSec = round2(float64(rec.Events) / wall)
	}
	if tot := phases.AdvanceSec + phases.MergeSec + phases.SerialSec; tot > 0 {
		rec.MergePhaseShare = round2(phases.MergeSec / tot * 100)
	}
	fmt.Printf("perf: fleet 1M %7.1fvs %7.1fs wall  %12d events  %12.0f ev/s  (advance %.1fs merge %.1fs serial %.1fs)\n",
		rec.VirtualSec, wall, rec.Events, rec.EventsPerSec, phases.AdvanceSec, phases.MergeSec, phases.SerialSec)
	return rec, nil
}

// measureFleetCapped runs the capped operating point once at the given
// fleet size and returns its throughput record (phase split unset).
func measureFleetCapped(devices int, cycles float64) (Fleet1MPerfRecord, error) {
	cfgs, cluster, err := fleetCluster(devices, cycles)
	if err != nil {
		return Fleet1MPerfRecord{}, err
	}
	start := time.Now()
	res, err := cluster.Run(context.Background(), cfgs)
	if err != nil {
		return Fleet1MPerfRecord{}, fmt.Errorf("fleet capped @ %d devices: %w", devices, err)
	}
	wall := time.Since(start).Seconds()
	rec := Fleet1MPerfRecord{
		Devices:     devices,
		VirtualSec:  cfgs[0].DurationSec,
		WallSec:     round2(wall),
		Events:      res.Engine.Events,
		Epochs:      res.Engine.Epochs,
		ServedShare: servedShare(res.Cloud),
	}
	if wall > 0 {
		rec.EventsPerSec = round2(float64(rec.Events) / wall)
	}
	return rec, nil
}

// runFleetSmoke is the CI gate: one capped 100k-device (by default)
// events-fidelity run, failing if throughput lands under the floor or the
// tier served under minServedShare of its batches. The floor guards the
// fleet core against regression without the cost of a full -perf sweep.
func runFleetSmoke(devices int, minEventsPerSec float64, outPath string) error {
	rec, err := measureFleetCapped(devices, 0.02)
	if err != nil {
		return fmt.Errorf("fleet smoke: %w", err)
	}
	evPerSec := rec.EventsPerSec
	fmt.Printf("fleet smoke: %d devices, %.1fvs in %.1fs wall — %d events in %d epochs, %.0f ev/s (%.1fx the frozen serial-merge 100k baseline), %.1f%% of batches served\n",
		devices, rec.VirtualSec, rec.WallSec, rec.Events, rec.Epochs, evPerSec, evPerSec/serialMergeBaseline100k, 100*rec.ServedShare)
	if outPath != "" {
		data, err := json.MarshalIndent(&rec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("fleet smoke: wrote %s\n", outPath)
	}
	if rec.ServedShare < minServedShare {
		return fmt.Errorf("fleet smoke gate: tier served %.1f%% of its batches, need >= %.0f%%: the run times the drop path",
			100*rec.ServedShare, 100*minServedShare)
	}
	if minEventsPerSec > 0 && evPerSec < minEventsPerSec {
		return fmt.Errorf("fleet smoke gate: %.0f events/sec, need >= %.0f", evPerSec, minEventsPerSec)
	}
	return nil
}

// fleetSpeedup returns engine-vs-stepper events/sec at the given device
// count (0 when either row is missing).
func fleetSpeedup(recs []FleetPerfRecord, devices int) float64 {
	var eng, step float64
	for _, r := range recs {
		if r.Devices != devices {
			continue
		}
		switch r.Engine {
		case shoggoth.EngineEvent:
			eng = r.EventsPerSec
		case shoggoth.EngineFrameStep:
			step = r.EventsPerSec
		}
	}
	if eng <= 0 || step <= 0 {
		return 0
	}
	return round2(eng / step)
}
