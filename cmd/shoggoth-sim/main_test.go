package main

import (
	"flag"
	"testing"

	"shoggoth"
)

// multiCloudConfigs builds the multi-cloud scenario's devices and returns
// them with the tier the scenario stamps into each.
func multiCloudConfigs(t *testing.T) ([]shoggoth.Config, shoggoth.CloudTier) {
	t.Helper()
	sc, err := shoggoth.ScenarioByName("multi-cloud")
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := shoggoth.ScenarioConfigs(sc, shoggoth.Shoggoth, 0, shoggoth.WithCycles(0.05))
	if err != nil {
		t.Fatal(err)
	}
	return cfgs, *sc.Cloud
}

// parseCloudFlags registers the cloud flags on a fresh set and parses args.
func parseCloudFlags(t *testing.T, args ...string) (*flag.FlagSet, shoggoth.CloudTier) {
	t.Helper()
	fs := flag.NewFlagSet("shoggoth-sim", flag.ContinueOnError)
	tier := cloudFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return fs, *tier
}

// TestTypedCloudFlagOverridesOnlyItsField: -cloud-policy wfq over the
// multi-cloud scenario sets the policy and keeps the rest of the scenario's
// tier — 3 replicas, domain-affinity routing, 3-way coalescing — although
// -cloud-replicas and the others sit at their own defaults.
func TestTypedCloudFlagOverridesOnlyItsField(t *testing.T) {
	cfgs, spec := multiCloudConfigs(t)
	fs, tier := parseCloudFlags(t, "-cloud-policy", "wfq")
	applyCloudFlags(fs, tier, cfgs)
	want := spec
	want.Service.Policy = "wfq"
	for i, cfg := range cfgs {
		if cfg.Cloud != want {
			t.Fatalf("device %d: tier %+v, want %+v", i, cfg.Cloud, want)
		}
	}
	if c := cfgs[0].Cloud; c.Replicas != 3 || c.Router != "domain-affinity" || c.Service.Coalesce != 3 {
		t.Fatalf("scenario tier lost under a typed policy flag: %+v", c)
	}
}

// TestUntypedCloudFlagsLeaveTheSpec: flags left at their defaults change
// nothing, however those defaults differ from the scenario's tier.
func TestUntypedCloudFlagsLeaveTheSpec(t *testing.T) {
	cfgs, spec := multiCloudConfigs(t)
	fs, tier := parseCloudFlags(t)
	applyCloudFlags(fs, tier, cfgs)
	for i, cfg := range cfgs {
		if cfg.Cloud != spec {
			t.Fatalf("device %d: tier %+v, want the scenario's %+v", i, cfg.Cloud, spec)
		}
	}
}

// TestEveryCloudFlagReachesTheTier: each cloud flag, typed, lands in its
// own field of every device's tier.
func TestEveryCloudFlagReachesTheTier(t *testing.T) {
	cfgs := make([]shoggoth.Config, 2)
	fs, tier := parseCloudFlags(t, "-queue-cap", "4", "-cloud-policy", "phi-priority", "-cloud-workers", "2",
		"-cloud-replicas", "5", "-cloud-router", "least-loaded", "-cloud-admit-rate", "6",
		"-cloud-admit-burst", "8", "-cloud-coalesce", "3", "-cloud-cold-start", "0.3")
	applyCloudFlags(fs, tier, cfgs)
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
