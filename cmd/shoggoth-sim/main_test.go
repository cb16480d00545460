package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"shoggoth"
)

// specConfigs decodes -set edits over the default spec, validates it and
// builds its device configs.
func specConfigs(t *testing.T, sets ...string) []shoggoth.Config {
	t.Helper()
	spec, err := decodeSpec([]byte("{}"), sets)
	if err != nil {
		t.Fatal(err)
	}
	r, err := spec.Validate()
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := spec.configs(r)
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
		Service:         shoggoth.CloudService{QueueCap: 4, Policy: "phi-priority", Workers: 2, Coalesce: 3},
		AdmitRatePerSec: 6, AdmitBurst: 8, ColdStartSec: 0.3,
	}
	for i, cfg := range cfgs {
		if cfg.Cloud != want {
			t.Fatalf("device %d: tier %+v, want %+v", i, cfg.Cloud, want)
		}
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
		{[]string{"scenario=multi-cloud", "strategy=all"}, "strategy"},
		{[]string{"sample_frac=0.5"}, "sample_frac"},
		{[]string{"sample_seed=3"}, "sample_seed"},
		{[]string{"devices=4", "fidelity=sampled", "sample_frac=1.5"}, "sample_frac"},
		{[]string{"scenario=7"}, "scenario"},
		{[]string{"scenario.name=x", "scenario.cloud.service.policy=bogus"}, "policy"},
		{[]string{"strategy"}, "strategy"},
		{[]string{"strategy.name=shoggoth"}, "strategy"},
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

// TestPrintedSpecReplays: -print-spec's output, run with -spec, prints
// what the direct run prints, byte for byte, and prints itself back.
func TestPrintedSpecReplays(t *testing.T) {
	args := []string{"-set", "devices=2", "-set", "fidelity=events", "-set", "cycles=0.05", "-set", "cloud.service.policy=wfq"}
	file := filepath.Join(t.TempDir(), "run.json")
	var spec, direct, replay, again bytes.Buffer
	if code := run(append(args, "-print-spec"), &spec, os.Stderr); code != 0 {
		t.Fatalf("-print-spec: exit %d", code)
	}
	if err := os.WriteFile(file, spec.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}
	if code := run(args, &direct, os.Stderr); code != 0 {
		t.Fatalf("direct run: exit %d", code)
	}
	if code := run([]string{"-spec", file}, &replay, os.Stderr); code != 0 {
		t.Fatalf("replay: exit %d", code)
	}
	if direct.String() != replay.String() {
		t.Fatalf("replay differs from the direct run:\n%s\nvs\n%s", replay.String(), direct.String())
	}
	if code := run([]string{"-spec", file, "-print-spec"}, &again, os.Stderr); code != 0 || again.String() != spec.String() {
		t.Fatalf("printed spec does not print itself back (exit %d):\n%s\nvs\n%s", code, again.String(), spec.String())
	}
}

// FuzzRunSpec feeds arbitrary spec bytes and -set edits (one per line)
// through decode and Validate, which must never panic. An accepted spec
// must print as JSON that decodes back to an equal spec. Configs are not
// built: devices is the user's to size. The inline scenario key carries
// scenario JSON through scenario.Load, so this fuzzes that format too.
// Seeds are checked in under testdata/fuzz; CI fuzzes it for 20 s.
func FuzzRunSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte, sets string) {
		var edits []string
		if sets != "" {
			edits = strings.Split(sets, "\n")
		}
		spec, err := decodeSpec(doc, edits)
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
		back, err := decodeSpec(printed.Bytes(), nil)
		if err != nil {
			t.Fatalf("printed spec does not decode: %v\n%s", err, printed.String())
		}
		if !reflect.DeepEqual(back, spec) {
			t.Fatalf("printed spec decodes to %+v, want %+v", back, spec)
		}
	})
}
