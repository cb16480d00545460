package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"shoggoth"
	"shoggoth/internal/cloud"
	"shoggoth/internal/experiments"
	"shoggoth/internal/runspec"
)

// specConfigs decodes -set edits over the default spec, validates it and
// builds its device configs.
func specConfigs(t *testing.T, sets ...string) []shoggoth.Config {
	t.Helper()
	spec, err := runspec.Decode([]byte("{}"), sets)
	if err != nil {
		t.Fatal(err)
	}
	r, err := spec.Validate()
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := spec.Configs(r)
	if err != nil {
		t.Fatal(err)
	}
	return cfgs
}

// multiCloudTier is the tier the multi-cloud scenario stamps into each
// device.
func multiCloudTier(t *testing.T) shoggoth.CloudTier {
	t.Helper()
	sc, err := shoggoth.ScenarioByName("multi-cloud")
	if err != nil {
		t.Fatal(err)
	}
	return *sc.Cloud
}

// TestCloudKeyOverridesOnlyItsField: cloud.service.policy=wfq over the
// multi-cloud scenario sets the policy and keeps the rest of the
// scenario's tier — 3 replicas, domain-affinity routing, 3-way coalescing.
func TestCloudKeyOverridesOnlyItsField(t *testing.T) {
	want := multiCloudTier(t)
	want.Service.Policy = "wfq"
	for i, cfg := range specConfigs(t, "scenario=multi-cloud", "cycles=0.05", "cloud.service.policy=wfq") {
		if cfg.Cloud != want {
			t.Fatalf("device %d: tier %+v, want %+v", i, cfg.Cloud, want)
		}
	}
	if want.Replicas != 3 || want.Router != "domain-affinity" || want.Service.Coalesce != 3 {
		t.Fatalf("multi-cloud's tier changed under this test: %+v", want)
	}
}

// TestAbsentCloudKeyLeavesTheScenarioTier: a spec without a cloud key
// runs the scenario's tier as it stands.
func TestAbsentCloudKeyLeavesTheScenarioTier(t *testing.T) {
	want := multiCloudTier(t)
	for i, cfg := range specConfigs(t, "scenario=multi-cloud", "cycles=0.05") {
		if cfg.Cloud != want {
			t.Fatalf("device %d: tier %+v, want the scenario's %+v", i, cfg.Cloud, want)
		}
	}
}

// TestEveryCloudKeyReachesTheTier: each key of a tier fragment lands in
// its own field of every device's tier.
func TestEveryCloudKeyReachesTheTier(t *testing.T) {
	cfgs := specConfigs(t, "devices=2", "fidelity=events", `cloud={"replicas": 5, "router": "least-loaded",
		"service": {"queue_cap": 4, "policy": "phi-priority", "workers": 2, "coalesce": 3},
		"admit_rate_per_sec": 6, "admit_burst": 8, "cold_start_sec": 0.3}`)
	want := shoggoth.CloudTier{
		Replicas: 5, Router: "least-loaded",
		Service:         cloud.ServiceConfig{QueueCap: 4, Policy: "phi-priority", Workers: 2, Coalesce: 3},
		AdmitRatePerSec: 6, AdmitBurst: 8, ColdStartSec: 0.3,
	}
	for i, cfg := range cfgs {
		if cfg.Cloud != want {
			t.Fatalf("device %d: tier %+v, want %+v", i, cfg.Cloud, want)
		}
	}
}

// wantList is what -list prints for the stock registries, in registration
// order.
const wantList = `strategies (strategy):
  Edge-Only       offline-trained student on the edge, no adaptation, no network
  Cloud-Only      every frame inferred by the cloud golden model; maximum accuracy, maximum bandwidth, low FPS
  Prompt          Shoggoth without adaptive sampling: fixed 2 fps uploads, prompt regular retraining
  AMS             adaptive model streaming: cloud-side fine-tuning, model updates streamed down
  Shoggoth        decoupled distillation: cloud labels, edge latent-replay training, adaptive sampling

profiles (profile):
  ua-detrac       dense urban traffic cameras, four vehicle classes, strong day/weather/night drift (UA-DETRAC)
  kitti           suburban driving, single car class, mild daylight-only drift (KITTI)
  waymo           mixed urban scenes with pedestrians and cyclists, rapid scene changes (Waymo Open)

cloud policies (cloud.service.policy):
  fifo            serve batches in arrival order (the frozen default)
  phi-priority    label the most-drifted device (highest last mean φ) first
  wfq             weighted fair queueing: least attained teacher service per weight first

cloud routers (cloud.router):
  round-robin     cycle through replicas in index order (the frozen default)
  least-loaded    shortest queue-delay estimate first (soonest-free worker, then fewest queued)
  domain-affinity route to the replica warmest on the batch's video domain (least-loaded when cold)

scenarios (scenario):
  steady          the frozen default: unmodified workloads on constant calibrated links (the golden-results world)
  rush-hour       three phase-staggered cameras under diurnal uplink congestion peaking mid-script
  day-night       the script cut to its sunny and night segments only: hard drift flips with no twilight in between
  lossy-uplink    30 s uplink blackouts every 2 min: uploads stall, bunch at recovery and contend for the teacher
  degraded-cell   a weak fading cell: ~1 Mbps-class uplink with seeded LTE-like rate swings in both directions
  cell-tower      a fleet multiplexed onto shared ~200 Mbps cell towers: concurrent uploads split each tower's diurnal aggregate rate (fleet event engine only)
  hetero-fleet    one cloud serving three dissimilar cameras: ua-detrac, phase-shifted kitti, shuffled slow waymo
  multi-cloud     six phase-staggered cameras in two SLO classes on a 3-replica tier: domain-affinity routing, token-bucket admission, 3-way teacher batching, cold-start pricing

experiments (exp):
  table1          Table I: up/down bandwidth and mAP@0.5 of the five strategies on three datasets
  fig4            Figure 4: average FPS per strategy and Shoggoth's FPS over time
  table2          Table II: the adaptive-training ablation (replay placement, freezing, no replay)
  table3          Table III: uplink and IoU of fixed sampling rates against the adaptive controller
  fig5            Figure 5: CDF of per-window mAP gain over Edge-Only, scored on table1's runs
  extra           ablations beyond the paper: BRN vs BN, reservoir vs FIFO replay, controller signals
  policy          cloud scheduling ablation: policies × teacher workers on one contended queue
  router          cloud routing ablation: routers × replicas with cross-device teacher batching
  scenario        scenario ablation: strategies × network traces (steady, lossy-uplink, degraded-cell)

fidelities (fidelity):
  full            real student SGD, every frame materialized — the golden-identical default
  events          fleet-scale sparse mode: analytic costing, no student deployed, frames priced not executed
  sampled         seeded device subset at full fidelity inside an events fleet; fleet accuracy extrapolated with a bootstrap error bound (sample_frac, sample_seed; cluster mode only)
`

// TestListPrintsEveryRegistry pins -list byte for byte.
func TestListPrintsEveryRegistry(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 || stderr.Len() > 0 {
		t.Fatalf("-list: exit %d, stderr %q", code, stderr.String())
	}
	if got := stdout.String(); got != wantList {
		t.Fatalf("-list printed\n%s\nwant\n%s", got, wantList)
	}
}

// TestBadSpecIsAnError: each value below is a usage error that names its
// key — several of them were ignored without a word when they were flags.
func TestBadSpecIsAnError(t *testing.T) {
	for _, tc := range []struct {
		sets []string
		key  string
	}{
		{[]string{"duration=-5"}, "duration"},
		{[]string{"rate=-1"}, "rate"},
		{[]string{"devices=-3"}, "devices"},
		{[]string{"workers=-2"}, "workers"},
		{[]string{"cycles=0"}, "cycles"},
		{[]string{"bogus=1"}, "bogus"},
		{[]string{"cloud.servce.policy=wfq"}, "servce"},
		{[]string{"devices=2", "fidelity=events", "cycles=0.05", "cloud.service.policy=bogus"}, `cloud: cloud: unknown scheduling policy "bogus" (want fifo, phi-priority, wfq)`},
		{[]string{"strategy=bogus"}, `strategy: strategy: unknown strategy "bogus" (want ams, cloud-only, edge-only, prompt, shoggoth)`},
		{[]string{"profile=bogus"}, `profile: video: unknown profile "bogus" (want kitti, ua-detrac, waymo)`},
		{[]string{"scenario=bogus"}, `scenario: scenario: unknown scenario "bogus" (want cell-tower, day-night, degraded-cell, hetero-fleet, lossy-uplink, multi-cloud, rush-hour, steady)`},
		{[]string{"cloud.router=bogus"}, `cloud: cloud: unknown replica router "bogus" (want domain-affinity, least-loaded, round-robin)`},
		{[]string{"scenario=multi-cloud", "strategy=all"}, "strategy"},
		{[]string{"sample_frac=0.5"}, "sample_frac"},
		{[]string{"sample_seed=3"}, "sample_seed"},
		{[]string{"devices=4", "fidelity=sampled", "sample_frac=1.5"}, "sample_frac"},
		{[]string{"scenario=7"}, "scenario"},
		{[]string{"scenario.name=x", "scenario.cloud.service.policy=bogus"}, "policy"},
		{[]string{"strategy"}, "strategy"},
		{[]string{"strategy.name=shoggoth"}, "strategy"},
		{[]string{"compute_lane=float32"}, "compute_lane"},
		{[]string{"compute_tier=bogus"}, "compute_tier"},
		{[]string{"accum_workers=-1"}, "accum_workers"},
	} {
		args := []string{}
		for _, kv := range tc.sets {
			args = append(args, "-set", kv)
		}
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		msg := stderr.String()
		if code != 1 || !strings.Contains(msg, tc.key) || strings.Contains(msg, "panic:") || stdout.Len() > 0 {
			t.Errorf("%v: exit %d, stderr %q, stdout %d bytes; want exit 1 naming %q and nothing on stdout",
				tc.sets, code, msg, stdout.Len(), tc.key)
		}
	}
}

// untimed drops the wall-clock lines an experiment run prints after each
// result.
func untimed(out string) string {
	return regexp.MustCompile(`(?m)^\(\w+ took \d+s\)$`).ReplaceAllString(out, "")
}

// TestPrintedSpecReplays: -print-spec's output, run with -spec, prints
// what the direct run prints, byte for byte but for an experiment's
// timings, and prints itself back. The rows cover a scenario's
// multi-replica tier, a deferred coalescing tier over a plain fleet, a
// heterogeneous full-fidelity fleet under wfq and an experiment.
func TestPrintedSpecReplays(t *testing.T) {
	for _, tc := range []struct {
		name string
		sets []string
	}{
		{"events-wfq", []string{"devices=2", "fidelity=events", "cycles=0.05", "cloud.service.policy=wfq"}},
		{"multi-cloud", []string{"scenario=multi-cloud", "fidelity=events", "cycles=0.1"}},
		{"wfq-workers-coalesce", []string{"devices=3", "fidelity=events", "cycles=0.1",
			"cloud.service.policy=wfq", "cloud.service.workers=2", "cloud.service.coalesce=2"}},
		{"hetero-fleet", []string{"scenario=hetero-fleet", "cloud.service.queue_cap=4", "cloud.service.policy=wfq", "cycles=0.1"}},
		{"exp-fig4", []string{"exp=Fig4", "cycles=0.02", "seed=3"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var args []string
			for _, set := range tc.sets {
				args = append(args, "-set", set)
			}
			file := filepath.Join(t.TempDir(), "run.json")
			var spec, direct, replay, again bytes.Buffer
			if code := run(append(args, "-print-spec"), &spec, os.Stderr); code != 0 {
				t.Fatalf("-print-spec: exit %d", code)
			}
			if err := os.WriteFile(file, spec.Bytes(), 0o600); err != nil {
				t.Fatal(err)
			}
			if code := run(args, &direct, os.Stderr); code != 0 || direct.Len() == 0 {
				t.Fatalf("direct run: exit %d, %d bytes", code, direct.Len())
			}
			if code := run([]string{"-spec", file}, &replay, os.Stderr); code != 0 {
				t.Fatalf("replay: exit %d", code)
			}
			if untimed(direct.String()) != untimed(replay.String()) {
				t.Fatalf("replay differs from the direct run:\n%s\nvs\n%s", replay.String(), direct.String())
			}
			if code := run([]string{"-spec", file, "-print-spec"}, &again, os.Stderr); code != 0 || again.String() != spec.String() {
				t.Fatalf("printed spec does not print itself back (exit %d):\n%s\nvs\n%s", code, again.String(), spec.String())
			}
		})
	}
}

// TestUnknownExperimentIsAnError: a typo in exp names the valid
// experiments and runs nothing.
func TestUnknownExperimentIsAnError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-set", "exp=tabel1"}, &stdout, &stderr); code != 1 || stdout.Len() > 0 {
		t.Fatalf("exp=tabel1: exit %d, stdout %q; want exit 1 and nothing run", code, stdout.String())
	}
	for _, want := range []string{"spec key exp", `"tabel1"`, "table1", "scenario", "or all"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr %q does not mention %s", stderr.String(), want)
		}
	}
}

type rendered string

func (r rendered) Render() string { return string(r) }

// TestAllVisitsEveryExperimentOnceInOrder pins the order exp=all runs in,
// that a single name, in any case, runs that experiment alone, and that
// every experiment runs under the spec's cycles, seed and workers.
func TestAllVisitsEveryExperimentOnceInOrder(t *testing.T) {
	order := []string{"table1", "fig4", "table2", "table3", "fig5", "extra", "policy", "router", "scenario"}
	for _, tc := range []struct {
		exp  string
		want []string
	}{{"all", order}, {"Fig5", []string{"fig5"}}} {
		spec, err := runspec.Decode([]byte("{}"), []string{"exp=" + tc.exp, "cycles=0.5", "seed=7", "workers=3"})
		if err != nil {
			t.Fatal(err)
		}
		r, err := spec.Validate()
		if err != nil {
			t.Fatal(err)
		}
		var visited []string
		for i := range r.Experiments {
			name := r.Experiments[i].Name
			r.Experiments[i].Value = func(s *experiments.Suite) (experiments.Renderer, error) {
				if want := (experiments.Mode{Cycles: 0.5, Seed: 7, Workers: 3}); s.Mode != want {
					t.Errorf("%s ran in mode %+v, want %+v", name, s.Mode, want)
				}
				visited = append(visited, name)
				return rendered("<" + name + ">"), nil
			}
		}
		var out bytes.Buffer
		if err := experiments.Run(&out, r.Experiments, r.Mode, shoggoth.WallClock()); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(visited, tc.want) {
			t.Fatalf("exp=%s visited %v, want %v", tc.exp, visited, tc.want)
		}
		at := 0
		for _, name := range tc.want {
			i := strings.Index(out.String()[at:], "<"+name+">\n("+name+" took ")
			if i < 0 {
				t.Fatalf("exp=%s: output lacks %s's result after offset %d:\n%s", tc.exp, name, at, out.String())
			}
			at += i
		}
	}
}

// TestExpRefusesWhatItIgnores: with exp set, every run key the
// experiments do not read, set off its default, and the -json and -v
// flags exit 1 naming themselves, before anything runs.
func TestExpRefusesWhatItIgnores(t *testing.T) {
	for _, tc := range []struct {
		args []string
		name string
	}{
		{[]string{"-set", "scenario=steady"}, "spec key scenario"},
		{[]string{"-set", `scenario={"name": "x"}`}, "spec key scenario"},
		{[]string{"-set", "strategy=ams"}, "spec key strategy"},
		{[]string{"-set", "strategy=all"}, "spec key strategy"},
		{[]string{"-set", "profile=kitti"}, "spec key profile"},
		{[]string{"-set", "devices=2"}, "spec key devices"},
		{[]string{"-set", "fidelity=events"}, "spec key fidelity"},
		{[]string{"-set", "rate=1"}, "spec key rate"},
		{[]string{"-set", "duration=60"}, "spec key duration"},
		{[]string{"-set", "sample_frac=0.5"}, "spec key sample_frac"},
		{[]string{"-set", "sample_seed=3"}, "spec key sample_seed"},
		{[]string{"-set", "cloud.router=least-loaded"}, "spec key cloud"},
		{[]string{"-json"}, "-json"},
		{[]string{"-v"}, "-v"},
	} {
		args := append([]string{"-set", "exp=table1", "-set", "cycles=0.01"}, tc.args...)
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if msg := stderr.String(); code != 1 || !strings.Contains(msg, tc.name) || stdout.Len() > 0 {
			t.Errorf("%v: exit %d, stderr %q, stdout %d bytes; want exit 1 naming %q and nothing on stdout",
				tc.args, code, msg, stdout.Len(), tc.name)
		}
	}
	// Keys at their defaults, spelled out, are no conflict.
	spec, err := runspec.Decode([]byte("{}"), []string{"exp=table1", "strategy=shoggoth", "profile=ua-detrac",
		"fidelity=full", "devices=0", "rate=0", "duration=0", "sample_frac=0", "sample_seed=0"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Validate(); err != nil {
		t.Fatalf("an exp spec with every ignored key at its default: %v", err)
	}
}

// FuzzRunSpec feeds arbitrary spec bytes and -set edits (one per line)
// through runspec.Decode and Validate, which must never panic. An accepted
// spec must print as -print-spec prints it, as JSON that decodes back to an
// equal spec. Configs are not
// built: devices is the user's to size. The inline scenario key carries
// scenario JSON through scenario.Load, so this fuzzes that format too.
// Seeds are checked in under testdata/fuzz; CI fuzzes it for 20 s.
func FuzzRunSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte, sets string) {
		var edits []string
		if sets != "" {
			edits = strings.Split(sets, "\n")
		}
		spec, err := runspec.Decode(doc, edits)
		if err != nil {
			return
		}
		if _, err := spec.Validate(); err != nil {
			return
		}
		var printed bytes.Buffer
		if err := emitJSON(&printed, spec); err != nil {
			t.Fatal(err)
		}
		back, err := runspec.Decode(printed.Bytes(), nil)
		if err != nil {
			t.Fatalf("printed spec does not decode: %v\n%s", err, printed.String())
		}
		if !reflect.DeepEqual(back, spec) {
			t.Fatalf("printed spec decodes to %+v, want %+v", back, spec)
		}
	})
}
