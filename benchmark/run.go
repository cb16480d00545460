package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"shoggoth"
)

const (
	// nominalPassSeconds is what one pass of any workload costs on the
	// 2-core reference box, to the nearest ten; -seconds buys one pass per
	// twenty seconds (never fewer than one), so the work a run measures is
	// a whole number of fixed-size passes.
	nominalPassSeconds = 20
)

// runConfig is one benchmark run: one workload, one seed, traced or not.
type runConfig struct {
	root     string
	spec     *spec
	workload string
	seed     uint64
	seconds  int
	traced   bool
	sz       sizes
	outDir   string
	// cache, when set, supplies already-pretrained students (the package
	// test; a measured run leaves it nil so set-up pays for pretraining).
	cache *shoggoth.StudentCache
}

// record is everything one run learned; it is written to
// <out>/<workload>.seed<seed>.trace<0|1>.json, and Result is what the last
// line of standard output carries.
type record struct {
	Workload    string      `json:"workload"`
	Seed        uint64      `json:"seed"`
	Seconds     int         `json:"seconds"`
	Traced      bool        `json:"traced"`
	Fingerprint fingerprint `json:"fingerprint"`
	Result      result      `json:"result"`
	Problems    []string    `json:"problems,omitempty"`

	// Raw seconds per set-up and per pass; Host holds the calibrations taken
	// at the start, between set-up and passes, and after every pass, and the
	// reported setup_s, wall_s and cpu_s are the raw medians divided by the
	// slowdown of the calibrations that bracket them.
	SetupSec []float64    `json:"setup_s_raw"`
	WallSec  []float64    `json:"wall_s_raw"`
	CPUSec   []float64    `json:"cpu_s_raw"`
	Host     []hostSample `json:"host_calibrations"`
	PeakRSS  float64      `json:"peak_rss_mb"`
	// Workload holds the end-to-end values only some workloads have
	// (fail_share everywhere; label_rtt_* live; map50_* on the grid),
	// measured on the untraced passes.
	WorkloadMetrics map[string]float64 `json:"workload_metrics"`
	// Digest and Counts are functions of (workload, seed) alone and must
	// repeat exactly; Inexact lists the count rows exempt from that.
	Digest string `json:"digest"`
	// DigestNote says how Digest compares with expected/outcomes.json.
	DigestNote string              `json:"digest_vs_expected,omitempty"`
	Counts     map[string]float64  `json:"counts"`
	Inexact    []string            `json:"inexact_counts,omitempty"`
	Units      map[string]unitStat `json:"unit_costs,omitempty"`
}

// result is the driver's result line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// calibrate appends one host calibration to the record.
func (rec *record) calibrate(sz sizes) error {
	h, err := calibrateHost(sz)
	if err != nil {
		return fmt.Errorf("host calibration: %w", err)
	}
	rec.Host = append(rec.Host, h)
	return nil
}

func runWorkload(rc runConfig) (*record, error) {
	setup, ok := workloads[rc.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", rc.workload, rc.spec.workloadNames())
	}
	rec := &record{Workload: rc.workload, Seed: rc.seed, Seconds: rc.seconds, Traced: rc.traced,
		Fingerprint: newFingerprint(rc.root)}
	if err := rec.calibrate(rc.sz); err != nil {
		return nil, err
	}
	var tr *tracer
	reps := rc.sz.setupReps
	if rc.traced {
		tr = &tracer{run: fmt.Sprintf("%s-seed%d", rc.workload, rc.seed)}
		reps = 1
	}

	// A cheap set-up (milliseconds on the fleets) is repeated further, for
	// sz.setupSec in all, so that its median is steady too: the first few
	// dozen repeats run on the caches the calibration just emptied, and their
	// median alone read 3.4 to 5.3 ms where the median of three seconds' worth
	// stays within 3.3 to 3.6 ms.
	var inst instance
	start := now()
	for i := 0; i < reps || (!rc.traced && now()-start < rc.sz.setupSec); i++ {
		if inst != nil {
			inst.close()
		}
		id := tr.begin("setup")
		t0 := now()
		var err error
		inst, err = setup(setupArgs{root: rc.root, seed: rc.seed, sz: rc.sz, cache: rc.cache, tr: tr})
		dt := now() - t0
		tr.end(id)
		rec.SetupSec = append(rec.SetupSec, dt)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", rc.workload, err)
		}
	}
	defer inst.close()

	passes := max(1, rc.seconds/nominalPassSeconds)
	if rc.traced {
		passes = 1
	}
	if err := rec.calibrate(rc.sz); err != nil {
		return nil, err
	}
	setupSlowdown := between(rec.Host[0], rec.Host[1])
	var last *outcome
	var walls, cpus []float64 // calibrated, one per pass
	for i := 0; i < passes; i++ {
		resetPeakRSS()
		o, err := inst.run(nil)
		if err != nil {
			return nil, fmt.Errorf("%s: pass %d: %w", rc.workload, i+1, err)
		}
		rec.PeakRSS = max(rec.PeakRSS, peakRSSMB())
		if err := rec.calibrate(rc.sz); err != nil {
			return nil, err
		}
		slowdown := between(rec.Host[i+1], rec.Host[i+2])
		walls, cpus = append(walls, o.wall/slowdown), append(cpus, o.cpu/slowdown)
		rec.WallSec = append(rec.WallSec, o.wall)
		rec.CPUSec = append(rec.CPUSec, o.cpu)
		rec.Problems = append(rec.Problems, o.problems...)
		if last != nil && o.digest != last.digest {
			rec.Problems = append(rec.Problems, fmt.Sprintf("%s: pass %d produced different outputs from pass %d", rc.workload, i+1, i))
		}
		last = o
	}
	rec.Digest = last.digest
	rec.Counts = map[string]float64{}
	for name, v := range last.counts {
		if last.inexact[name] {
			rec.Inexact = append(rec.Inexact, name)
		} else {
			rec.Counts[name] = v
		}
	}
	sort.Strings(rec.Inexact)
	rec.WorkloadMetrics = map[string]float64{"fail_share": 0}
	if last.offered > 0 {
		rec.WorkloadMetrics["fail_share"] = last.refused / last.offered
	}
	for name, v := range last.extra {
		rec.WorkloadMetrics[name] = v
	}
	rec.Result.Attempted, rec.Result.Failed = last.attempted, last.failed
	if rc.sz.full {
		problems, note := checkOutcomes(rc.workload, rc.seed, rec.Digest, rec.WorkloadMetrics)
		rec.Problems, rec.DigestNote = append(rec.Problems, problems...), note
	}

	var metrics *metricSet
	if rc.traced {
		var err error
		if metrics, err = tracedPass(rc, rec, inst, tr, last); err != nil {
			return nil, err
		}
	} else {
		metrics = newMetricSet(rc.spec.EndToEnd)
		metrics.set("setup_s", median(rec.SetupSec)/setupSlowdown)
		metrics.set("wall_s", median(walls))
		metrics.set("cpu_s", median(cpus))
		metrics.set("peak_rss_mb", rec.PeakRSS)
		metrics.set("served_share", 1-rec.WorkloadMetrics["fail_share"])
	}
	if miss := metrics.missing(); len(miss) > 0 {
		return nil, fmt.Errorf("%s: declared metrics never measured: %v", rc.workload, miss)
	}
	rec.Result.Metrics = metrics.result()
	rec.Result.Correct = len(rec.Problems) == 0
	rec.Fingerprint.SpinAfterNs = spinNs()

	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return nil, err
	}
	if tr != nil {
		if err := tr.write(filepath.Join(rc.outDir, "trace_"+rc.workload+".json")); err != nil {
			return nil, err
		}
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return nil, err
	}
	return rec, os.WriteFile(recordPath(rc.outDir, rc.workload, rc.seed, rc.traced), append(data, '\n'), 0o644)
}

func recordPath(outDir, workload string, seed uint64, traced bool) string {
	t := 0
	if traced {
		t = 1
	}
	return filepath.Join(outDir, fmt.Sprintf("%s.seed%d.trace%d.json", workload, seed, t))
}

// tracedPass runs the workload once more with tracing on — spans around the
// calls into each layer, the injected perf clock, a CPU profile — then the
// unit costs, and fills every per-layer metric. untraced is the pass the
// overhead and the ledger are measured against.
func tracedPass(rc runConfig, rec *record, inst instance, tr *tracer, untraced *outcome) (*metricSet, error) {
	m := newMetricSet(rc.spec.PerLayer)
	for _, name := range m.order {
		m.set(name, 0) // a layer this workload never enters reads zero
	}

	var before, after runtime.MemStats
	var traced *outcome
	runtime.ReadMemStats(&before)
	shares, err := cpuProfile(func() error {
		id := tr.begin("pass")
		defer tr.end(id)
		var err error
		traced, err = inst.run(tr)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s: traced pass: %w", rc.workload, err)
	}
	runtime.ReadMemStats(&after)
	if err := rec.calibrate(rc.sz); err != nil {
		return nil, err
	}
	rec.Problems = append(rec.Problems, traced.problems...)
	if traced.digest != untraced.digest {
		rec.Problems = append(rec.Problems, rc.workload+": the traced pass produced different outputs from the untraced pass")
	}

	// Host[1..3] bracket the untraced and then the traced pass.
	untracedSlowdown, tracedSlowdown := between(rec.Host[1], rec.Host[2]), between(rec.Host[2], rec.Host[3])
	m.set("trace.overhead_share", (traced.wall/tracedSlowdown)/(untraced.wall/untracedSlowdown)-1)
	m.set("host.spin_ns", rec.Fingerprint.SpinBeforeNs)
	m.set("host.slowdown", untracedSlowdown)
	m.set("setup.pretrain_s", tr.total("setup.pretrain"))
	m.set("setup.configs_s", tr.total("setup.configs"))
	m.set("setup.pregen_s", tr.total("setup.pregen"))
	m.set("runtime.mallocs", float64(after.Mallocs-before.Mallocs))
	m.set("runtime.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	m.set("runtime.gc_cycles", float64(after.NumGC-before.NumGC))
	m.set("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	for name, v := range rec.WorkloadMetrics {
		m.set(name, v)
	}
	for name, v := range traced.counts {
		m.set(name, v)
		if !traced.inexact[name] {
			rec.Counts[name] = v // the traced pass adds the rows only it can see
		}
	}
	for name, v := range traced.layer {
		m.set(name, v)
	}
	for _, g := range profGroups {
		m.set("prof."+g+".cpu_share", shares[g])
	}

	units, err := runUnits(rc.seed, rc.sz)
	if err != nil {
		return nil, fmt.Errorf("unit costs: %w", err)
	}
	rec.Units = units
	for name, st := range units {
		m.set(name, st.Median)
	}
	attributed := ledger(rc.workload, units, traced.counts)
	m.set("ledger.attributed_s", attributed)
	m.set("ledger.unattributed_s", untraced.wall-attributed)
	return m, nil
}

// ledger prices a workload from the bottom up: for the layers on its path,
// unit cost times the number of times the traced pass crossed the layer.
// benchmark/README.md lists the same rows; what the sum leaves of wall_s is
// ledger.unattributed_s, the next thing to find.
func ledger(workload string, units map[string]unitStat, counts map[string]float64) float64 {
	ns := func(unit string) float64 { return units[unit].Median * 1e-9 }
	switch workload {
	case "table1_grid":
		return ns("detect.infer_frame_ns")*counts["detect.infer_frames"] +
			ns("detect.train_step_exact_ns")*counts["detect.train_steps"] +
			ns("video.stream_next_ns")*counts["core.frames"] +
			ns("edge.device_tick_ns")*counts["core.frames"] +
			ns("metrics.add_frame_ns")*counts["detect.infer_frames"] +
			ns("cloud.labeler.frame_ns")*counts["edge.sampled_frames"]
	case "fleet_fifo", "fleet_policy":
		offered := counts["cloud.batches"] + counts["cloud.dropped_batches"]
		return ns("core.fleet_frame_ns")*counts["core.frames"] +
			ns("cloud.tier.enqueue_ns")*offered +
			ns("sim.engine.event_ns")*counts["sim.engine.events"]
	case "live_loopback":
		perRequest := ns("rpc.encode_req_ns") + ns("rpc.decode_req_ns") +
			liveBatchFrames*ns("cloud.labeler.frame_ns") +
			ns("rpc.encode_resp_ns") + ns("rpc.decode_resp_ns")
		// Two closed loops run side by side on two cores.
		return perRequest * counts["rpc.requests"] / liveClients
	}
	return 0
}
