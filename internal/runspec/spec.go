// Package runspec is one run as data: the JSON spec that shoggoth-sim and
// shoggoth-edge load with -spec and edit with -set, and that shoggoth-sim's
// -print-spec prints. A spec resolves to the core.Configs its runners take,
// so the simulator and the live edge read a run the same way, or, with its
// exp key, to the paper's experiments.
package runspec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"

	"shoggoth"
	"shoggoth/internal/experiments"
	"shoggoth/internal/scenario"
)

// Spec is one run as data: what a -spec file holds, -set edits and
// -print-spec prints.
type Spec struct {
	// Exp is "all" or an experiment name (experiments.Select); set, the
	// run is the paper's evaluation under Seed, Cycles and Workers alone.
	Exp string `json:"exp"`
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
	// Cloud is a cloud.TierConfig fragment: the keys it names override
	// every device's tier, the rest keep the scenario's.
	Cloud json.RawMessage `json:"cloud,omitempty"`
}

// Load reads the spec file (empty: every key at its default) and applies
// the path=value edits, as Decode does.
func Load(file string, sets []string) (Spec, error) {
	doc := []byte("{}")
	if file != "" {
		var err error
		if doc, err = os.ReadFile(file); err != nil {
			return Spec{}, err
		}
	}
	return Decode(doc, sets)
}

// Decode applies the path=value edits to the JSON object doc and decodes
// it strictly over the defaults. json.Unmarshal refuses trailing data;
// re-encoding compacts, so a printed spec decodes back to itself.
func Decode(doc []byte, sets []string) (Spec, error) {
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(doc, &keys); err != nil {
		return Spec{}, fmt.Errorf("spec: %w", err)
	}
	for _, kv := range sets {
		path, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Spec{}, fmt.Errorf("-set %q: want path=value", kv)
		}
		v := json.RawMessage(val)
		if !json.Valid(v) {
			v, _ = json.Marshal(val) // a string always encodes
		}
		var err error
		if keys, err = setKey(keys, strings.Split(path, "."), v); err != nil {
			return Spec{}, fmt.Errorf("-set %s: %w", path, err)
		}
	}
	doc, _ = json.Marshal(keys) // every value is valid JSON
	spec := defaults
	if err := decodeStrict(doc, &spec); err != nil {
		return Spec{}, fmt.Errorf("spec: %w", err)
	}
	return spec, nil
}

// defaults is the spec of an empty document.
var defaults = Spec{Profile: shoggoth.ProfileDETRAC, Strategy: "shoggoth", Seed: 1, Cycles: 2, Fidelity: "full"}

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

// Resolved is a validated spec's names in the runners' types.
type Resolved struct {
	// Experiments are what the exp key selects, to run in Mode; empty, the
	// spec runs devices.
	Experiments []experiments.Experiment
	Mode        experiments.Mode
	Kinds       []shoggoth.StrategyKind
	Profile     *shoggoth.Profile
	Scenario    *shoggoth.Scenario // nil: the plain profile
	Tier        shoggoth.CloudTier // the scenario's tier under the cloud key
}

// expReads are the keys an exp run reads; it refuses any other key set off
// its default.
var expReads = map[string]bool{"exp": true, "seed": true, "cycles": true, "workers": true}

// Validate checks every key, naming the first bad one, and resolves the
// spec's names. A trial config per strategy checks fidelity.
func (s *Spec) Validate() (r Resolved, err error) {
	if s.Exp != "" {
		if r.Experiments, err = experiments.Select(s.Exp); err != nil {
			return r, fmt.Errorf("spec key exp: %w", err)
		}
		r.Mode = experiments.Mode{Cycles: s.Cycles, Seed: s.Seed, Workers: s.Workers}
		t, v, def := reflect.TypeOf(*s), reflect.ValueOf(*s), reflect.ValueOf(defaults)
		for i := range t.NumField() {
			key, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
			if !expReads[key] && !reflect.DeepEqual(v.Field(i).Interface(), def.Field(i).Interface()) {
				return r, fmt.Errorf("spec key %s: exp %s runs the paper's own settings and reads only seed, cycles and workers; leave %s at its default",
					key, s.Exp, key)
			}
		}
	}
	if r.Kinds = shoggoth.StrategyKinds(); !strings.EqualFold(s.Strategy, "all") {
		kind, err := shoggoth.ParseStrategy(s.Strategy)
		if err != nil {
			return r, fmt.Errorf("spec key strategy: %w", err)
		}
		r.Kinds = []shoggoth.StrategyKind{kind}
	}
	if r.Profile, err = shoggoth.ProfileByName(s.Profile); err != nil {
		return r, fmt.Errorf("spec key profile: %w", err)
	}
	var name string
	switch {
	case len(s.Scenario) == 0 || string(s.Scenario) == "null":
	case s.Scenario[0] == '{':
		r.Scenario, err = scenario.Load(bytes.NewReader(s.Scenario))
	case json.Unmarshal(s.Scenario, &name) == nil:
		r.Scenario, err = shoggoth.ScenarioByName(name)
	default:
		err = errors.New("want a registered name or an inline scenario object")
	}
	if err != nil {
		return r, fmt.Errorf("spec key scenario: %w", err)
	}
	oneDevice := s.Devices == 1 || s.Devices == 0 && (r.Scenario == nil || r.Scenario.NaturalDevices() == 1)
	sampled := s.Fidelity == string(shoggoth.FidelitySampled)
	for _, c := range []struct {
		key string
		bad bool
		val any
		why string
	}{
		{"strategy", len(r.Kinds) > 1 && (r.Scenario != nil || !oneDevice), s.Strategy, "needs the plain profile on one device"},
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
	if r.Scenario != nil && r.Scenario.Cloud != nil {
		r.Tier = *r.Scenario.Cloud
	}
	if len(s.Cloud) > 0 {
		err = decodeStrict(s.Cloud, &r.Tier)
	}
	if err == nil {
		err = r.Tier.Validate()
	}
	if err != nil {
		return r, fmt.Errorf("spec key cloud: %w", err)
	}
	for _, kind := range r.Kinds {
		cfg := shoggoth.NewConfig(kind, r.Profile, s.options()...)
		if err := cfg.Validate(); err != nil {
			return r, fmt.Errorf("spec: %w", err)
		}
	}
	return r, nil
}

// options turns the run keys into config options.
func (s *Spec) options() []shoggoth.Option {
	opts := []shoggoth.Option{shoggoth.WithSeed(s.Seed), shoggoth.WithCycles(s.Cycles),
		shoggoth.WithFidelity(shoggoth.Fidelity(s.Fidelity))}
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

// Configs builds the run's device configs on the resolved tier. A plain
// profile keeps DeviceID empty unless it clusters.
func (s *Spec) Configs(r Resolved) (cfgs []shoggoth.Config, err error) {
	sc := r.Scenario
	if sc == nil && s.Devices > 1 {
		// A plain-profile cluster is a one-slice scenario.
		sc = &shoggoth.Scenario{Name: r.Profile.Name, Profile: r.Profile.Name}
	}
	if sc == nil {
		cfgs = shoggoth.Grid([]*shoggoth.Profile{r.Profile}, r.Kinds, s.options()...)
	} else if cfgs, err = shoggoth.ScenarioConfigs(sc, r.Kinds[0], s.Devices, s.options()...); err != nil {
		return nil, err
	}
	for i := range cfgs {
		cfgs[i].Cloud = r.Tier
	}
	return cfgs, nil
}
