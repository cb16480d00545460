package scenario

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"shoggoth/internal/cloud"
	"shoggoth/internal/core"
	"shoggoth/internal/netsim"
	"shoggoth/internal/strategy"
	"shoggoth/internal/video"
)

func TestStockScenariosRegisteredAndValid(t *testing.T) {
	want := []string{"steady", "rush-hour", "day-night", "lossy-uplink", "degraded-cell", "cell-tower", "hetero-fleet", "multi-cloud"}
	names := Names()
	if len(names) < len(want) {
		t.Fatalf("expected at least %d stock scenarios, got %v", len(want), names)
	}
	for i, name := range want {
		if names[i] != name {
			t.Fatalf("stock scenario %d: got %q want %q", i, names[i], name)
		}
		sc, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Summary == "" {
			t.Fatalf("scenario %s has no summary", name)
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("stock scenario %s invalid: %v", name, err)
		}
	}
	if Summary("lossy-uplink") == "" {
		t.Fatal("Summary lookup failed")
	}
	if _, err := ByName("no-such-world"); err == nil || !strings.Contains(err.Error(), "steady") {
		t.Fatalf("unknown scenario error should list known names, got %v", err)
	}
}

func TestSteadyConfigsEqualDefaults(t *testing.T) {
	sc, err := ByName("steady")
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := sc.Configs(core.Shoggoth, 1, strategy.WithSeed(1), strategy.WithCycles(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 1 {
		t.Fatalf("steady natural size is 1, got %d", len(cfgs))
	}
	def := strategy.Configure(core.Shoggoth, video.DETRACProfile(),
		strategy.WithSeed(1), strategy.WithCycles(1))
	got := cfgs[0]
	if got.UplinkTrace != nil || got.DownlinkTrace != nil {
		t.Fatal("steady must keep the constant default links (nil traces)")
	}
	if got.Uplink != def.Uplink || got.Downlink != def.Downlink {
		t.Fatal("steady must keep the calibrated link parameters")
	}
	if got.DurationSec != def.DurationSec || got.Seed != def.Seed {
		t.Fatal("steady must keep the default duration and seed")
	}
	if got.Profile.Name != def.Profile.Name || len(got.Profile.Script) != len(def.Profile.Script) {
		t.Fatal("steady must keep the unmodified base profile")
	}
}

func TestMultiCloudStampsTierSpec(t *testing.T) {
	sc, err := ByName("multi-cloud")
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := sc.Configs(core.Shoggoth, 0, strategy.WithSeed(1), strategy.WithCycles(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 6 {
		t.Fatalf("multi-cloud natural size is 6, got %d", len(cfgs))
	}
	wantClass := []string{"premium", "premium", "standard", "standard", "standard", "standard"}
	for i, cfg := range cfgs {
		// Every device carries the scenario's full tier spec, so a Cluster
		// with no explicit cloud knobs can adopt device 0's spec.
		if cfg.Cloud != *sc.Cloud || cfg.Cloud.Replicas != 3 || cfg.Cloud.Service.Coalesce != 3 {
			t.Fatalf("device %d: tier spec not stamped: %+v", i, cfg.Cloud)
		}
		if cfg.SLOClass != wantClass[i] {
			t.Fatalf("device %d: SLO class %q, want %q", i, cfg.SLOClass, wantClass[i])
		}
	}
}

// TestValidateRejectsBadCloudSpec: a scenario's cloud block is checked by
// cloud.TierConfig.Validate (whose own table covers every bad field).
func TestValidateRejectsBadCloudSpec(t *testing.T) {
	sc := Scenario{Name: "t", Devices: []DeviceSpec{{}}}
	sc.Cloud = &cloud.TierConfig{Replicas: 3, Router: "least-loaded", Service: cloud.ServiceConfig{Policy: "wfq"}}
	if err := sc.Validate(); err != nil {
		t.Fatalf("valid cloud spec rejected: %v", err)
	}
	sc.Cloud.Service.Policy = "warp"
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "wfq") {
		t.Fatalf("unknown policy: got %v, want an error listing the registered policies", err)
	}
}

// TestCloudBlockRoundTrips: the stock multi-cloud tier marshals to the
// nested JSON shape and loads back equal.
func TestCloudBlockRoundTrips(t *testing.T) {
	sc, err := ByName("multi-cloud")
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"service":{"coalesce":3}`) {
		t.Fatalf("cloud block not nested: %s", b)
	}
	back, err := Load(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if back.Cloud == nil || *back.Cloud != *sc.Cloud {
		t.Fatalf("cloud block did not round-trip: got %+v, want %+v", back.Cloud, sc.Cloud)
	}
}

// TestFlatCloudKeysRejected: the cloud block's per-replica knobs live under
// "service"; a flat key fails loudly instead of being dropped.
func TestFlatCloudKeysRejected(t *testing.T) {
	for _, spec := range []string{
		`{"name": "x", "cloud": {"policy": "wfq"}}`,
		`{"name": "x", "cloud": {"replicas": 2, "queue_cap": 4}}`,
	} {
		if _, err := Load(strings.NewReader(spec)); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Fatalf("%s: got %v, want an unknown-field error", spec, err)
		}
	}
	sc, err := Load(strings.NewReader(`{"name": "x", "cloud": {"replicas": 2, "service": {"policy": "wfq", "workers": 2}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if want := (cloud.TierConfig{Replicas: 2, Service: cloud.ServiceConfig{Policy: "wfq", Workers: 2}}); *sc.Cloud != want {
		t.Fatalf("nested cloud block: got %+v, want %+v", *sc.Cloud, want)
	}
}

func TestConfigsTileSlicesAndOffsetSeeds(t *testing.T) {
	sc, err := ByName("hetero-fleet")
	if err != nil {
		t.Fatal(err)
	}
	if sc.NaturalDevices() != 3 {
		t.Fatalf("hetero-fleet natural size: %d", sc.NaturalDevices())
	}
	cfgs, err := sc.Configs(core.Shoggoth, 5, strategy.WithSeed(10), strategy.WithCycles(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 5 {
		t.Fatalf("asked for 5 devices, got %d", len(cfgs))
	}
	wantProfiles := []string{"ua-detrac", "kitti", "waymo", "ua-detrac", "kitti"}
	for i, cfg := range cfgs {
		if cfg.Profile.Name != wantProfiles[i] {
			t.Fatalf("device %d profile: got %s want %s", i, cfg.Profile.Name, wantProfiles[i])
		}
		if cfg.Seed != 10+uint64(i) {
			t.Fatalf("device %d seed: got %d", i, cfg.Seed)
		}
		if cfg.DurationSec != cfgs[0].DurationSec {
			t.Fatal("cluster devices must share one duration")
		}
		if cfg.DeviceID == "" {
			t.Fatal("devices must be named")
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("device %d config invalid: %v", i, err)
		}
	}
	// Slice 1 is phase-shifted kitti: same script duration, rotated script.
	kitti := video.KITTIProfile()
	if cfgs[1].Profile.ScriptDuration() != kitti.ScriptDuration() {
		t.Fatal("phase shift must preserve the kitti script duration")
	}
	if cfgs[1].Profile.DomainIndexAt(0) != kitti.DomainIndexAt(90) {
		t.Fatal("kitti slice should be phase-shifted by 90 s")
	}
}

func TestConfigsInstallTraces(t *testing.T) {
	for name, dir := range map[string]string{"lossy-uplink": "up", "degraded-cell": "both", "rush-hour": "up"} {
		sc, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfgs, err := sc.Configs(core.Shoggoth, 1, strategy.WithCycles(1))
		if err != nil {
			t.Fatal(err)
		}
		cfg := cfgs[0]
		if cfg.UplinkTrace == nil {
			t.Fatalf("%s: expected an uplink trace", name)
		}
		if dir == "both" && cfg.DownlinkTrace == nil {
			t.Fatalf("%s: expected a downlink trace", name)
		}
		if dir == "up" && cfg.DownlinkTrace != nil {
			t.Fatalf("%s: downlink should stay constant", name)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s config invalid: %v", name, err)
		}
	}
	// The lossy uplink actually stalls transfers inside the outage window.
	sc, _ := ByName("lossy-uplink")
	cfgs, _ := sc.Configs(core.Shoggoth, 1)
	stalled := netsim.TransferSeconds(cfgs[0].UplinkTrace, 50_000, 80)
	clear := netsim.TransferSeconds(cfgs[0].UplinkTrace, 50_000, 0)
	if stalled <= clear {
		t.Fatalf("transfer inside the blackout should be slower: %v vs %v", stalled, clear)
	}
}

func TestRegisterRejectsInvalidAndDuplicate(t *testing.T) {
	if err := Register(Scenario{Name: ""}); err == nil {
		t.Fatal("nameless scenario must be rejected")
	}
	if err := Register(Scenario{Name: "bad-profile", Profile: "nope"}); err == nil {
		t.Fatal("unknown profile must be rejected")
	}
	if err := Register(Scenario{
		Name:    "bad-subset",
		Devices: []DeviceSpec{{Workload: video.ScriptTransform{Domains: []int{77}}}},
	}); err == nil {
		t.Fatal("invalid domain subset must be rejected at registration")
	}
	if err := Register(Scenario{
		Name:    "bad-trace",
		Network: NetworkSpec{Up: &TraceSpec{Kind: "warp"}},
	}); err == nil {
		t.Fatal("unknown trace kind must be rejected")
	}
	if err := Register(Scenario{
		Name:    "dead-link",
		Network: NetworkSpec{Up: &TraceSpec{Kind: TraceConstant, BandwidthBps: -1}},
	}); err == nil {
		t.Fatal("non-positive constant bandwidth must be rejected")
	}
	if err := Register(Scenario{Name: "STEADY"}); err == nil {
		t.Fatal("duplicate name (case-insensitive) must be rejected")
	}
}

func TestLoadJSONScenario(t *testing.T) {
	spec := `{
	  "name": "custom-outage",
	  "summary": "kitti behind a flaky cell",
	  "profile": "kitti",
	  "devices": [
	    {"workload": {"phase_sec": 60}},
	    {"network": {"up": {"kind": "lte", "bandwidth_bps": 2e6, "seed": 5}}}
	  ],
	  "network": {
	    "up": {"kind": "step", "period_sec": 60,
	           "windows": [{"start_sec": 40, "end_sec": 50, "rate_bps": 0}]}
	  }
	}`
	sc, err := Load(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "custom-outage" || len(sc.Devices) != 2 {
		t.Fatalf("loaded scenario malformed: %+v", sc)
	}
	cfgs, err := sc.Configs(core.Shoggoth, 2, strategy.WithCycles(1))
	if err != nil {
		t.Fatal(err)
	}
	// Device 0 inherits the scenario-wide step trace; device 1's own
	// network spec overrides it with the LTE cell.
	if _, ok := cfgs[0].UplinkTrace.(*netsim.StepTrace); !ok {
		t.Fatalf("device 0 should ride the step trace, got %T", cfgs[0].UplinkTrace)
	}
	if _, ok := cfgs[1].UplinkTrace.(*netsim.LTETrace); !ok {
		t.Fatalf("device 1 should override with the lte trace, got %T", cfgs[1].UplinkTrace)
	}
	if cfgs[0].Profile.DomainIndexAt(0) != video.KITTIProfile().DomainIndexAt(60) {
		t.Fatal("device 0 workload phase not applied")
	}

	if _, err := Load(strings.NewReader(`{"name": "x", "nope": 1}`)); err == nil {
		t.Fatal("unknown JSON fields must be rejected")
	}
	if _, err := Load(strings.NewReader(`{"summary": "nameless"}`)); err == nil {
		t.Fatal("nameless JSON scenario must be rejected")
	}
	// The spec must be the whole input: a second value, garbage or a stray
	// bracket after it is an error, not ignored.
	for _, in := range []string{
		`{"name":"a"}{"name":"b","profile":"bogus"}`,
		`{"name":"a"} trailing garbage`,
		`{"name":"a"}]`,
	} {
		if sc, err := Load(strings.NewReader(in)); err == nil {
			t.Fatalf("Load(%q) = scenario %q, want a trailing-data error", in, sc.Name)
		}
	}
}

func TestByNameReturnsIsolatedCopies(t *testing.T) {
	a, err := ByName("lossy-uplink")
	if err != nil {
		t.Fatal(err)
	}
	a.Network.Up.Windows[0].EndSec = 999
	a.Summary = "mutated"
	b, _ := ByName("lossy-uplink")
	if b.Network.Up.Windows[0].EndSec == 999 || b.Summary == "mutated" {
		t.Fatal("registry state leaked through a ByName copy")
	}
}

// TestConfigsShareSliceWorlds locks the fleet-scale memory contract: every
// device of a slice references the SAME profile and trace instances — both
// immutable at run time — so a 100k-device fleet holds O(len(Devices))
// world state rather than 100k transformed copies.
func TestConfigsShareSliceWorlds(t *testing.T) {
	sc, err := ByName("rush-hour")
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := sc.Configs(core.Shoggoth, 9, strategy.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	// Devices 1, 4 and 7 are the same slice (phase-shifted workload).
	if cfgs[1].Profile == nil || cfgs[1].Profile != cfgs[4].Profile || cfgs[4].Profile != cfgs[7].Profile {
		t.Fatal("same-slice devices should share one transformed profile instance")
	}
	if cfgs[1].UplinkTrace == nil || cfgs[1].UplinkTrace != cfgs[4].UplinkTrace {
		t.Fatal("same-slice devices should share one uplink trace instance")
	}
	// Identity still varies per device.
	if cfgs[1].Seed == cfgs[4].Seed || cfgs[1].DeviceID == cfgs[4].DeviceID {
		t.Fatal("shared worlds must not collapse per-device seed or id")
	}
}

// TestConfigsAssignUplinkCells checks cell-tower fan-out: SharedCells > 0
// deals devices round-robin onto 1-based cells, and scenarios without a
// shared medium leave the assignment at zero (private uplink).
func TestConfigsAssignUplinkCells(t *testing.T) {
	sc, err := ByName("cell-tower")
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := sc.Configs(core.Shoggoth, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		if want := 1 + i%4; cfg.UplinkCell != want {
			t.Fatalf("device %d: UplinkCell %d, want %d", i, cfg.UplinkCell, want)
		}
	}
	steady, err := ByName("steady")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := steady.Configs(core.Shoggoth, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range plain {
		if cfg.UplinkCell != 0 {
			t.Fatalf("steady device %d: unexpected cell %d", i, cfg.UplinkCell)
		}
	}
}
