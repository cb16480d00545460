package shoggoth_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"shoggoth"
)

// TestDeterminismMatrix is the repo's byte-identity contract in one table.
// Each row names one config set, runs its baseline once, checks that the
// baseline did real work, and holds every variant to the baseline's bytes
// through a projection. A pinned row also holds its baseline to bytes
// recorded on amd64. Variants at other EngineWorkers counts prove the
// engine's ordering contract (DESIGN.md §11); every variant is a runtime
// backstop for what the determinism analyzers (§10) cannot see. CI runs the
// matrix under -race too, engine worker pool and Fleet shared frames included.
func TestDeterminismMatrix(t *testing.T) {
	for _, row := range determinismRows() {
		t.Run(row.name, row.check)
	}
}

// check runs a row: its baseline, work check and pin, then every variant.
func (row determinismRow) check(t *testing.T) {
	if row.long && testing.Short() {
		t.Skip("seconds-long full-fidelity runs; skipped with -short")
	}
	base, variants := row.base, row.variants
	if base == nil {
		base = onCluster(row.cluster(1))
	}
	for _, w := range row.workers {
		variants = append(variants, variant{fmt.Sprintf("engine-workers=%d", w), whole, onCluster(row.cluster(w))})
	}
	if row.frameStep {
		variants = append(variants, variant{"frame-step", devicesAndCloud, onFrameStep(row.cluster(0))})
	}
	// Every run gets freshly built configs, which it may drop once
	// consumed: a million configs held across runs would raise
	// scale-1m's peak by their size.
	baseline := base(t, row.configs(t))
	row.work(t, baseline)
	if row.pin != nil && runtime.GOARCH == "amd64" {
		row.pin(t, baseline)
	} else if row.pin != nil {
		// Go may fuse multiply-adds off amd64, which moves low-order
		// bits: hold the baseline to a repeat of itself instead.
		variants = append(variants, variant{"repeat", whole, base})
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			if got, want := v.of(t, v.run(t, row.configs(t))), v.of(t, baseline); !bytes.Equal(got, want) {
				t.Fatalf("diverged from the baseline:\ngot:  %.2000s\nwant: %.2000s", got, want)
			}
		})
	}
}

// A determinismRow is one config set, the baseline run of it, and the
// variants that must reproduce the baseline's bytes.
type determinismRow struct {
	name string
	// long rows run seconds of full-fidelity video; -short skips them.
	long bool
	// configs builds the row's config set, the same one on every call.
	configs func(testing.TB) []shoggoth.Config
	// base runs the baseline; nil means cluster(1).
	base runner
	// cluster builds the row's Cluster at an engine worker count. Each of
	// workers adds a variant that reruns it at that count, and frameStep
	// one that runs it on the frame stepper.
	cluster   func(workers int) *shoggoth.Cluster
	workers   []int
	frameStep bool
	// work fails the row when the baseline did too little for its
	// variants' agreement to mean anything.
	work func(*testing.T, *shoggoth.ClusterResults)
	// pin, when set, holds the baseline to bytes recorded on amd64.
	pin      func(*testing.T, *shoggoth.ClusterResults)
	variants []variant
}

// A variant is another way to run a row's configs, and the projection of
// its results that must equal the baseline's.
type variant struct {
	name string
	of   projection
	run  runner
}

// A runner runs a config set. Runners without a shared cloud tier (serial
// Runs, Sessions, Fleets) report their per-device Results as Devices.
type runner func(*testing.T, []shoggoth.Config) *shoggoth.ClusterResults

// A projection is the part of a run's results a variant must repeat.
type projection func(*testing.T, *shoggoth.ClusterResults) []byte

// whole is all of ClusterResults, event-engine telemetry included.
func whole(t *testing.T, r *shoggoth.ClusterResults) []byte { return encodeJSON(t, r) }

// devicesAndCloud leaves out what only the event engine reports.
func devicesAndCloud(t *testing.T, r *shoggoth.ClusterResults) []byte {
	return append(encodeJSON(t, r.Devices), encodeJSON(t, r.Cloud)...)
}

// devices is the per-device Results alone: the JSON array that
// `shoggoth-sim -json` prints and testdata/golden_results.json holds.
func devices(t *testing.T, r *shoggoth.ClusterResults) []byte { return encodeJSON(t, r.Devices) }

// encodeJSON is the one encoding the root tests compare results in.
func encodeJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func determinismRows() []determinismRow {
	rows := []determinismRow{
		{
			// The variants spell out defaults: FIFO with one teacher worker,
			// the exact compute tier, and the calibrated constant links
			// installed as traces, which Config.uplink hands to
			// netsim.TransferSeconds exactly as it hands the Links.
			name: "golden", long: true,
			configs: goldenConfigs,
			base:    onFleet(0),
			work:    trained,
			pin:     matchesFile("testdata/golden_results.json", devices),
			variants: []variant{
				{"fifo-1-worker", devices, mutated(onFleet(0), func(c *shoggoth.Config) {
					c.Cloud.Service.Policy = "fifo"
					c.Cloud.Service.Workers = 1
				})},
				{"exact-tier", devices, mutated(onFleet(0), func(c *shoggoth.Config) { c.ComputeTier = "exact" })},
				{"constant-trace", devices, mutated(onFleet(0), func(c *shoggoth.Config) {
					c.UplinkTrace = c.Uplink
					c.DownlinkTrace = c.Downlink
				})},
			},
		},
		{
			// Each stock strategy as a Cluster of one, held to the blocking Run.
			name: "lone-device",
			configs: func(t testing.TB) []shoggoth.Config {
				cfgs := make([]shoggoth.Config, len(stockKinds))
				for i, kind := range stockKinds {
					cfgs[i] = testConfig(t, kind, 90)
					cfgs[i].DeviceID = "edge-1" // the name a Cluster gives its first device
				}
				return cfgs
			},
			base: serially,
			work: uploaded,
			variants: []variant{
				{"one-device-cluster", devices, inOneDeviceClusters},
			},
		},
		{
			// One Fleet worker runs each stream group whole, two run the
			// groups side by side, eight split every group.
			name:    "fleet",
			configs: fleetConfigs,
			base:    serially,
			work:    trained,
			variants: []variant{
				{"fleet-workers=1", devices, onFleet(1)},
				{"fleet-workers=2", devices, onFleet(2)},
				{"fleet-workers=8", devices, onFleet(8)},
			},
		},
		{
			name: "full-cluster", long: true,
			configs: func(t testing.TB) []shoggoth.Config { return clusterConfigs(t, 3, false, 120) },
			cluster: defaultTier, workers: []int{1}, frameStep: true,
			work: engineCounted,
		},
		{
			// Same-seed devices upload at the same instants: every merge
			// breaks ties.
			name: "full-cluster-same-seed", long: true,
			configs: func(t testing.TB) []shoggoth.Config { return clusterConfigs(t, 3, true, 120) },
			cluster: defaultTier, workers: []int{4, 8},
			work: served,
		},
		{
			name: "full-cluster-wfq", long: true,
			configs: func(t testing.TB) []shoggoth.Config { return clusterConfigs(t, 3, true, 120) },
			cluster: func(w int) *shoggoth.Cluster { return &shoggoth.Cluster{Policy: "wfq", Workers: 2, EngineWorkers: w} },
			workers: []int{1},
			work: func(t *testing.T, r *shoggoth.ClusterResults) {
				n := 0
				for _, d := range r.Devices {
					n += d.CloudBatches
				}
				if r.Cloud.Batches == 0 || n != r.Cloud.Batches {
					t.Fatalf("the cloud labeled %d batches, the devices count %d", r.Cloud.Batches, n)
				}
			},
		},
		{
			// A time-varying network trace, three devices, one cloud.
			name:    "full-rush-hour",
			configs: scenarioFleet("rush-hour", 3, 0, shoggoth.WithSeed(11), shoggoth.WithCycles(0.1)),
			cluster: defaultTier, workers: []int{1},
			work: func(t *testing.T, r *shoggoth.ClusterResults) {
				for i := 0; i < 3; i++ {
					if len(r.Devices) != 3 || r.Devices[i].SampledFrames == 0 {
						t.Fatalf("device %d of %d sampled no frames", i, len(r.Devices))
					}
				}
			},
		},
		{
			// Different profiles, phase-shifted and shuffled scripts.
			name: "full-hetero-fleet", long: true,
			configs: scenarioFleet("hetero-fleet", 0, 0, shoggoth.WithSeed(3), shoggoth.WithCycles(0.15)),
			cluster: func(w int) *shoggoth.Cluster { return &shoggoth.Cluster{QueueCap: 2, EngineWorkers: w} },
			workers: []int{1},
			work: func(t *testing.T, r *shoggoth.ClusterResults) {
				if !bytes.Contains(whole(t, r), []byte("kitti")) {
					t.Fatal("the hetero fleet reports no kitti device")
				}
			},
		},
		{
			// Sampling, uploads, labeling and priced training rounds without
			// a student network.
			name:    "events-rush-hour",
			configs: scenarioFleet("rush-hour", 24, 0, shoggoth.WithSeed(5), shoggoth.WithCycles(0.1), atEvents),
			cluster: defaultTier, workers: []int{4},
			work: func(t *testing.T, r *shoggoth.ClusterResults) {
				sampledAndServed(t, r)
				engineCounted(t, r)
			},
		},
	}

	// Shared uplink cells, which the frame stepper rejects and so cannot
	// referee: devices that flush on the same frame join their cell's
	// medium at one instant, where the device-index tie-break decides. The
	// digests are what commit acee705 produced, the engine before
	// events-fidelity devices slept between uploads. One pass of the script
	// is 72 virtual seconds: the default 25 s wait gives each device two
	// deadline flushes, the 5 s wait a flush every few frames of sampling,
	// most of them tied with a neighbour's.
	for _, pin := range []struct {
		wait   float64
		digest string
	}{
		{0, "c13571def9044fc56f4c2d0dc680a2131fd0b3c2549cf3ce22446684e9ec5a0e"},
		{5, "b5a4c3d4154f1a5056af78d00eebf1f3ef8be1588925b9bb2587ca4842e81e0a"},
	} {
		rows = append(rows, determinismRow{
			name:    fmt.Sprintf("events-cell-tower-wait=%g", pin.wait),
			configs: scenarioFleet("cell-tower", 300, pin.wait, shoggoth.WithSeed(9), shoggoth.WithCycles(0.1), atEvents),
			cluster: func(w int) *shoggoth.Cluster {
				return &shoggoth.Cluster{Replicas: 2, Workers: 4, QueueCap: 64, EngineWorkers: w}
			},
			workers: []int{4, 8},
			work:    served,
			pin:     hashesTo(pin.digest, devicesAndCloud),
		})
	}

	return append(rows,
		determinismRow{
			// A 5 s upload deadline makes the short horizon exercise the
			// cloud path: queueing, labeling, training pricing.
			name:    "scale-10k",
			configs: scenarioFleet("rush-hour", 10_000, 5, shoggoth.WithSeed(11), shoggoth.WithCycles(0.05), atEvents),
			cluster: defaultTier, workers: []int{1, 8, 8},
			work: func(t *testing.T, r *shoggoth.ClusterResults) {
				if len(r.Devices) != 10_000 {
					t.Fatalf("want 10000 device results, got %d", len(r.Devices))
				}
				sampledAndServed(t, r)
			},
		},
		determinismRow{
			// Three replicas, domain-affinity routing, token-bucket
			// admission, 3-way teacher batching and cold-start pricing, all
			// from the scenario's tier stamped into the device configs.
			name:    "multi-cloud",
			configs: scenarioFleet("multi-cloud", 6, 0, shoggoth.WithSeed(7), shoggoth.WithCycles(0.5), atEvents),
			cluster: defaultTier, workers: []int{1, 8},
			work: routed,
		},
		determinismRow{
			// The subset draw and the bootstrap sit inside the contract too.
			name:    "sampled",
			configs: scenarioFleet("rush-hour", 40, 0, shoggoth.WithSeed(3), shoggoth.WithCycles(0.02), shoggoth.WithSampledFidelity(0.2, 5)),
			cluster: defaultTier, workers: []int{1, 8},
			work: func(t *testing.T, r *shoggoth.ClusterResults) {
				if r.Sampled == nil || r.Sampled.SampledDevices != 8 || r.Sampled.Seed != 5 {
					t.Fatalf("sampled stats wrong: %+v", r.Sampled)
				}
			},
		},
		determinismRow{
			// A million devices (50k under -race: determinism_scale_test.go)
			// through the hierarchical merge tree, analytic cloud costing and
			// streaming Welford aggregation. AggregateOnly keeps the results
			// at the fleet aggregate, and the tight QueueCap keeps the
			// teacher queue O(cap) while every upload, admitted or dropped,
			// still crosses the outbox merge and the shared timeline.
			name:    "scale-1m",
			configs: scenarioFleet("rush-hour", megaFleetDevices, 5, shoggoth.WithSeed(11), shoggoth.WithCycles(0.01), atEvents),
			base:    freeingOS(onCluster(&shoggoth.Cluster{EngineWorkers: 1, AggregateOnly: true, QueueCap: 64})),
			work: func(t *testing.T, r *shoggoth.ClusterResults) {
				if r.Devices != nil || r.Fleet == nil || r.Fleet.Devices != megaFleetDevices {
					t.Fatalf("want only a %d-device fleet aggregate, got %d device results and %+v", megaFleetDevices, len(r.Devices), r.Fleet)
				}
				if r.Fleet.SampledFrames.Mean == 0 || r.Cloud.Batches == 0 || r.Cloud.DroppedBatches == 0 {
					t.Fatalf("fleet did no cloud work (sampled mean=%v batches=%d dropped=%d)",
						r.Fleet.SampledFrames.Mean, r.Cloud.Batches, r.Cloud.DroppedBatches)
				}
			},
			variants: []variant{
				{"engine-workers=8", whole, freeingOS(onCluster(&shoggoth.Cluster{EngineWorkers: 8, AggregateOnly: true, QueueCap: 64}))},
			},
		},
	)
}

var atEvents = shoggoth.WithFidelity(shoggoth.FidelityEvents)

// goldenConfigs is the grid testdata/golden_results.json records: every
// registered strategy on UA-DETRAC in quick mode (one scenario cycle, seed
// 1), what `shoggoth-sim -set strategy=all -set cycles=1 -json` runs. The
// golden tests must sort before toystrategy_test.go, which registers a sixth.
func goldenConfigs(t testing.TB) []shoggoth.Config {
	return shoggoth.Grid([]*shoggoth.Profile{detrac(t)}, shoggoth.StrategyKinds(),
		shoggoth.WithSeed(1), shoggoth.WithCycles(1))
}

// fleetConfigs is the Fleet's hardest grid: five strategies on one video,
// a session at that seed that ends early and drops out of its group's
// rounds, one at another seed and one at events fidelity.
func fleetConfigs(t testing.TB) []shoggoth.Config {
	p := detrac(t)
	cfgs := shoggoth.Grid([]*shoggoth.Profile{p}, stockKinds, shoggoth.WithDuration(200), shoggoth.WithSeed(3))
	cfgs = slices.Insert(cfgs, 2,
		shoggoth.NewConfig(shoggoth.Shoggoth, p, shoggoth.WithDuration(120), shoggoth.WithSeed(3)),
		shoggoth.NewConfig(shoggoth.Prompt, p, shoggoth.WithDuration(200), shoggoth.WithSeed(4)))
	cfgs = append(cfgs, shoggoth.NewConfig(shoggoth.Shoggoth, p, shoggoth.WithDuration(200), shoggoth.WithSeed(3), atEvents))
	for i := range cfgs {
		cfgs[i].BatchFrames = 20 // train within the short stream
	}
	return cfgs
}

// scenarioFleet builds n Shoggoth devices of a registered scenario. A
// positive wait overrides UploadMaxWaitSec, so that short runs flush on the
// deadline as well as on a full buffer.
func scenarioFleet(name string, n int, wait float64, opts ...shoggoth.Option) func(testing.TB) []shoggoth.Config {
	return func(t testing.TB) []shoggoth.Config {
		sc, err := shoggoth.ScenarioByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfgs, err := shoggoth.ScenarioConfigs(sc, shoggoth.Shoggoth, n, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if wait > 0 {
			for i := range cfgs {
				cfgs[i].UploadMaxWaitSec = wait
			}
		}
		return cfgs
	}
}

func defaultTier(workers int) *shoggoth.Cluster { return &shoggoth.Cluster{EngineWorkers: workers} }

func onCluster(c *shoggoth.Cluster) runner {
	c.Cache = &shoggoth.Students
	return func(t *testing.T, cfgs []shoggoth.Config) *shoggoth.ClusterResults {
		res, err := c.Run(context.Background(), cfgs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
}

// onFrameStep runs a config set on the frame stepper, the oracle the event
// engine is held to, which reports no engine telemetry.
func onFrameStep(c *shoggoth.Cluster) runner {
	c.Cache = &shoggoth.Students
	return func(t *testing.T, cfgs []shoggoth.Config) *shoggoth.ClusterResults {
		res, err := c.RunFrameStep(context.Background(), cfgs)
		if err != nil {
			t.Fatal(err)
		}
		if res.Engine != nil {
			t.Fatal("the frame stepper reported EngineInfo")
		}
		return res
	}
}

func onFleet(workers int) runner {
	return func(t *testing.T, cfgs []shoggoth.Config) *shoggoth.ClusterResults {
		res, err := (&shoggoth.Fleet{Workers: workers, Cache: &shoggoth.Students}).Run(context.Background(), cfgs)
		if err != nil {
			t.Fatal(err)
		}
		return &shoggoth.ClusterResults{Devices: res}
	}
}

// mutated runs a config set on run after mutate has rewritten every config.
func mutated(run runner, mutate func(*shoggoth.Config)) runner {
	return func(t *testing.T, cfgs []shoggoth.Config) *shoggoth.ClusterResults {
		cfgs = slices.Clone(cfgs)
		for i := range cfgs {
			mutate(&cfgs[i])
		}
		return run(t, cfgs)
	}
}

// freeingOS returns a run's memory to the OS after it. A million-device run
// holds ~4 GB live at its peak; without this the GC's heap goal stays sized
// for it, and the runs and tests after it grow the process past that
// high-water mark instead of collecting.
func freeingOS(run runner) runner {
	return func(t *testing.T, cfgs []shoggoth.Config) *shoggoth.ClusterResults {
		defer debug.FreeOSMemory()
		return run(t, cfgs)
	}
}

// withStudent gives a config the pretrained student a Fleet or Cluster
// would hand it: every stock strategy but Cloud-Only deploys one.
func withStudent(cfg shoggoth.Config) shoggoth.Config {
	if cfg.Kind != shoggoth.CloudOnly {
		cfg.Pretrained = shoggoth.Students.Get(cfg.Profile)
	}
	return cfg
}

// serially runs each config alone through the blocking Run: the reference
// for every runner that steps sessions together.
func serially(t *testing.T, cfgs []shoggoth.Config) *shoggoth.ClusterResults {
	out := &shoggoth.ClusterResults{}
	for _, cfg := range cfgs {
		res, err := shoggoth.Run(withStudent(cfg))
		if err != nil {
			t.Fatal(err)
		}
		out.Devices = append(out.Devices, res)
	}
	return out
}

// inOneDeviceClusters runs each config as a Cluster of one, whose tier
// aggregate must count its one device's batches.
func inOneDeviceClusters(t *testing.T, cfgs []shoggoth.Config) *shoggoth.ClusterResults {
	out := &shoggoth.ClusterResults{}
	for _, cfg := range cfgs {
		res := onCluster(defaultTier(0))(t, []shoggoth.Config{cfg})
		if len(res.Devices) != 1 || res.Cloud.Batches != res.Devices[0].CloudBatches {
			t.Fatalf("%s: %d device results; cloud aggregate counts %d batches", cfg.Kind, len(res.Devices), res.Cloud.Batches)
		}
		out.Devices = append(out.Devices, res.Devices[0])
	}
	return out
}

// matchesFile pins a projection of the baseline to a file's bytes.
func matchesFile(path string, of projection) func(*testing.T, *shoggoth.ClusterResults) {
	return func(t *testing.T, r *shoggoth.ClusterResults) {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(of(t, r), want) {
			t.Fatalf("the baseline diverged from %s: the bit-identical guarantee is broken "+
				"(or an intentional result change needs the file regenerated, with a justification)", path)
		}
	}
}

// hashesTo pins the sha256 of a projection of the baseline.
func hashesTo(digest string, of projection) func(*testing.T, *shoggoth.ClusterResults) {
	return func(t *testing.T, r *shoggoth.ClusterResults) {
		if got := fmt.Sprintf("%x", sha256.Sum256(of(t, r))); got != digest {
			t.Fatalf("outputs digest %s, want %s (%d batches, %d dropped)", got, digest, r.Cloud.Batches, r.Cloud.DroppedBatches)
		}
	}
}

func served(t *testing.T, r *shoggoth.ClusterResults) {
	if r.Cloud.Batches == 0 {
		t.Fatal("no batch reached the cloud")
	}
}

func sampledAndServed(t *testing.T, r *shoggoth.ClusterResults) {
	served(t, r)
	var sampled, processed int
	for _, d := range r.Devices {
		sampled += d.SampledFrames
		processed += d.FramesProcessed
	}
	if sampled == 0 || processed == 0 {
		t.Fatalf("the devices ran no workload: sampled=%d processed=%d", sampled, processed)
	}
}

func engineCounted(t *testing.T, r *shoggoth.ClusterResults) {
	if r.Engine == nil || r.Engine.Events == 0 || r.Engine.Epochs == 0 {
		t.Fatalf("event engine reported no telemetry: %+v", r.Engine)
	}
}

func uploaded(t *testing.T, r *shoggoth.ClusterResults) {
	for _, d := range r.Devices {
		if d.CloudBatches > 0 {
			return
		}
	}
	t.Fatal("no device had a batch labeled")
}

// trained checks that every strategy that trains on the edge trained.
func trained(t *testing.T, r *shoggoth.ClusterResults) {
	sessions := map[string]int{}
	for _, d := range r.Devices {
		sessions[d.Strategy] += d.Sessions
	}
	for _, s := range []string{"Prompt", "AMS", "Shoggoth"} {
		if sessions[s] == 0 {
			t.Errorf("%s completed no training session: %v", s, sessions)
		}
	}
}

// routed checks that the multi-cloud tier spread batches over replicas,
// coalesced them and served both SLO classes.
func routed(t *testing.T, r *shoggoth.ClusterResults) {
	c, n := r.Cloud, 0
	for _, rep := range c.Replicas {
		if rep.Batches > 0 {
			n++
		}
	}
	if len(c.Replicas) != 3 || n < 2 || c.CoalescedForwards == 0 || c.SLOClasses["premium"].Batches == 0 ||
		c.SLOClasses["standard"].Batches == 0 || c.JainFairness <= 0 || c.JainFairness > 1 {
		t.Fatalf("%d of %d replicas served, %d coalesced forwards, SLO classes %+v, Jain fairness %v",
			n, len(c.Replicas), c.CoalescedForwards, c.SLOClasses, c.JainFairness)
	}
}
