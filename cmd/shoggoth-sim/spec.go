package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"shoggoth"
	"shoggoth/internal/scenario"
)

// runSpec is one run as data: what a -spec file holds, -set edits and
// -print-spec prints.
type runSpec struct {
	// Scenario is a registered name or an inline scenario in scenario.Load's
	// format; absent, the run uses Profile.
	Scenario json.RawMessage `json:"scenario,omitempty"`
	Profile  string          `json:"profile"`
	Strategy string          `json:"strategy"` // a name, or "all" side by side on one plain-profile device
	Seed     uint64          `json:"seed"`     // device i of a cluster runs Seed+i
	Cycles   float64         `json:"cycles"`   // stream duration in scenario-script passes
	Duration float64         `json:"duration"` // seconds; overrides Cycles when > 0
	Rate     float64         `json:"rate"`     // fixed sampling fps when > 0
	Devices  int             `json:"devices"`  // > 1 clusters on one cloud tier; 0 is a scenario's natural size
	Workers  int             `json:"workers"`  // runner parallelism (0: its default); never changes results
	Fidelity string          `json:"fidelity"` // full, events or sampled; only sampled takes the sample keys
	// SampleFrac 0 is the default fraction, SampleSeed 0 the run seed.
	SampleFrac float64 `json:"sample_frac"`
	SampleSeed uint64  `json:"sample_seed"`
	// Empty and 0 keep the exact, golden-identical arithmetic.
	ComputeTier  string `json:"compute_tier"`
	ComputeLane  string `json:"compute_lane"`
	AccumWorkers int    `json:"accum_workers"`
	// Cloud is a cloud.TierConfig fragment: the keys it names override
	// every device's tier, the rest keep the scenario's.
	Cloud json.RawMessage `json:"cloud,omitempty"`
}

// decodeSpec applies the path=value edits to the JSON object doc and
// decodes it strictly over the defaults. json.Unmarshal refuses trailing
// data; re-encoding compacts, so a printed spec decodes back to itself.
func decodeSpec(doc []byte, sets []string) (runSpec, error) {
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(doc, &keys); err != nil {
		return runSpec{}, fmt.Errorf("spec: %w", err)
	}
	for _, kv := range sets {
		path, val, ok := strings.Cut(kv, "=")
		if !ok {
			return runSpec{}, fmt.Errorf("-set %q: want path=value", kv)
		}
		v := json.RawMessage(val)
		if !json.Valid(v) {
			v, _ = json.Marshal(val) // a string always encodes
		}
		var err error
		if keys, err = setKey(keys, strings.Split(path, "."), v); err != nil {
			return runSpec{}, fmt.Errorf("-set %s: %w", path, err)
		}
	}
	doc, _ = json.Marshal(keys) // every value is valid JSON
	spec := runSpec{Profile: shoggoth.ProfileDETRAC, Strategy: "shoggoth", Seed: 1, Cycles: 2, Fidelity: "full"}
	if err := decodeStrict(doc, &spec); err != nil {
		return runSpec{}, fmt.Errorf("spec: %w", err)
	}
	return spec, nil
}

// setKey stores value at the dot path in keys, creating objects on the way.
func setKey(keys map[string]json.RawMessage, path []string, value json.RawMessage) (map[string]json.RawMessage, error) {
	if keys == nil {
		keys = map[string]json.RawMessage{}
	}
	if len(path) > 1 {
		var sub map[string]json.RawMessage
		if raw, ok := keys[path[0]]; ok && json.Unmarshal(raw, &sub) != nil {
			return nil, fmt.Errorf("%s is not an object", path[0])
		}
		sub, err := setKey(sub, path[1:], value)
		if err != nil {
			return nil, err
		}
		value, _ = json.Marshal(sub) // every value is valid JSON
	}
	keys[path[0]] = value
	return keys, nil
}

// decodeStrict decodes data onto v, refusing keys v has no field for.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// resolved is a validated spec's names in the runners' types.
type resolved struct {
	kinds   []shoggoth.StrategyKind
	profile *shoggoth.Profile
	scen    *shoggoth.Scenario // nil: the plain profile
	tier    shoggoth.CloudTier // the scenario's tier under the cloud key
}

// Validate checks every key, naming the first bad one, and resolves the
// spec's names. A trial config per strategy checks fidelity and compute.
func (s *runSpec) Validate() (r resolved, err error) {
	if r.kinds = shoggoth.StrategyKinds(); !strings.EqualFold(s.Strategy, "all") {
		kind, err := shoggoth.ParseStrategy(s.Strategy)
		if err != nil {
			return r, fmt.Errorf("spec key strategy: %w", err)
		}
		r.kinds = []shoggoth.StrategyKind{kind}
	}
	if r.profile, err = shoggoth.ProfileByName(s.Profile); err != nil {
		return r, fmt.Errorf("spec key profile: %w", err)
	}
	var name string
	switch {
	case len(s.Scenario) == 0 || string(s.Scenario) == "null":
	case s.Scenario[0] == '{':
		r.scen, err = scenario.Load(bytes.NewReader(s.Scenario))
	case json.Unmarshal(s.Scenario, &name) == nil:
		r.scen, err = shoggoth.ScenarioByName(name)
	default:
		err = errors.New("want a registered name or an inline scenario object")
	}
	if err != nil {
		return r, fmt.Errorf("spec key scenario: %w", err)
	}
	oneDevice := s.Devices == 1 || s.Devices == 0 && (r.scen == nil || r.scen.NaturalDevices() == 1)
	sampled := s.Fidelity == string(shoggoth.FidelitySampled)
	for _, c := range []struct {
		key string
		bad bool
		val any
		why string
	}{
		{"strategy", len(r.kinds) > 1 && (r.scen != nil || !oneDevice), s.Strategy, "needs the plain profile on one device"},
		{"cycles", !(s.Cycles > 0), s.Cycles, "is not positive"},
		{"duration", s.Duration < 0, s.Duration, "is negative"},
		{"rate", s.Rate < 0, s.Rate, "is negative"},
		{"devices", s.Devices < 0, s.Devices, "is negative"},
		{"workers", s.Workers < 0, s.Workers, "is negative"},
		{"fidelity", sampled && oneDevice, s.Fidelity, "needs a device cluster (a multi-device scenario or devices > 1)"},
		{"sample_frac", s.SampleFrac < 0 || s.SampleFrac > 1, s.SampleFrac, "is outside [0, 1]"},
		{"sample_frac", s.SampleFrac != 0 && !sampled, s.SampleFrac, "needs fidelity sampled"},
		{"sample_seed", s.SampleSeed != 0 && !sampled, s.SampleSeed, "needs fidelity sampled"},
	} {
		if c.bad {
			return r, fmt.Errorf("spec key %s: %v %s", c.key, c.val, c.why)
		}
	}
	// The fragment decodes onto the scenario's tier, overriding what it names.
	if r.scen != nil && r.scen.Cloud != nil {
		r.tier = *r.scen.Cloud
	}
	if len(s.Cloud) > 0 {
		err = decodeStrict(s.Cloud, &r.tier)
	}
	if err == nil {
		err = r.tier.Validate()
	}
	if err != nil {
		return r, fmt.Errorf("spec key cloud: %w", err)
	}
	for _, kind := range r.kinds {
		cfg := shoggoth.NewConfig(kind, r.profile, s.options()...)
		if err := cfg.Validate(); err != nil {
			return r, fmt.Errorf("spec: %w", err)
		}
	}
	return r, nil
}

// options turns the run keys into config options.
func (s *runSpec) options() []shoggoth.Option {
	opts := []shoggoth.Option{shoggoth.WithSeed(s.Seed), shoggoth.WithCycles(s.Cycles),
		shoggoth.WithFidelity(shoggoth.Fidelity(s.Fidelity)), shoggoth.WithComputeTier(s.ComputeTier),
		shoggoth.WithComputeLane(s.ComputeLane), shoggoth.WithAccumWorkers(s.AccumWorkers)}
	if s.Fidelity == string(shoggoth.FidelitySampled) {
		opts = append(opts, shoggoth.WithSampledFidelity(s.SampleFrac, s.SampleSeed))
	}
	if s.Duration > 0 {
		opts = append(opts, shoggoth.WithDuration(s.Duration))
	}
	if s.Rate > 0 {
		opts = append(opts, shoggoth.WithFixedRate(s.Rate))
	}
	return opts
}

// configs builds the run's device configs on the resolved tier. A plain
// profile keeps DeviceID empty unless it clusters.
func (s *runSpec) configs(r resolved) (cfgs []shoggoth.Config, err error) {
	sc := r.scen
	if sc == nil && s.Devices > 1 {
		// A plain-profile cluster is a one-slice scenario.
		sc = &shoggoth.Scenario{Name: r.profile.Name, Profile: r.profile.Name}
	}
	if sc == nil {
		cfgs = shoggoth.Grid([]*shoggoth.Profile{r.profile}, r.kinds, s.options()...)
	} else if cfgs, err = shoggoth.ScenarioConfigs(sc, r.kinds[0], s.Devices, s.options()...); err != nil {
		return nil, err
	}
	for i := range cfgs {
		cfgs[i].Cloud = r.tier
	}
	return cfgs, nil
}
