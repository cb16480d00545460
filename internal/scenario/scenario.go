// Package scenario makes deployment worlds first-class: a Scenario
// composes a workload spec (a dataset profile plus script transforms), a
// network model (constant links or time-varying traces) and a per-device
// fleet layout into the Configs a Session, Fleet or Cluster runs. Scenarios
// are registered by name — in the same internal/registry table type as
// strategies, profiles, cloud policies and routers — and custom ones load
// from JSON, so the CLI, the experiment harness and tests all resolve
// worlds from one table with zero hand-maintained lists.
//
// Determinism: a Scenario is pure data. Every stochastic ingredient it
// names (script shuffles, LTE fading) is seeded, and network traces are
// pure functions of virtual time, so building the same scenario twice
// yields configs that replay bit-identically.
package scenario

import (
	"fmt"

	"shoggoth/internal/cloud"
	"shoggoth/internal/netsim"
	"shoggoth/internal/registry"
	"shoggoth/internal/video"
)

// Scenario is one composable deployment world. The zero value of every
// field means "the frozen default": base profile ua-detrac, one unmodified
// device slice, constant calibrated links — the exact world the golden
// results were captured in.
type Scenario struct {
	// Name resolves the scenario in the registry and the CLI.
	Name string `json:"name"`
	// Summary is the one-line description shown by listings.
	Summary string `json:"summary,omitempty"`
	// Profile names the base dataset profile (registered in
	// internal/video). Empty means ua-detrac. Device slices may override
	// it per device.
	Profile string `json:"profile,omitempty"`
	// Devices are the per-device slices of the fleet layout: device i of
	// an N-device fleet gets Devices[i mod len(Devices)], so a 3-slice
	// scenario tiles naturally over any fleet size. Empty means one
	// unmodified slice.
	Devices []DeviceSpec `json:"devices,omitempty"`
	// Network is the fleet-wide network model; a device slice's Network
	// overrides it wholesale.
	Network NetworkSpec `json:"network,omitempty"`
	// Cloud, when set, shapes the shared labeling tier the fleet uploads to:
	// replica count, replica router, each replica's service (queue bound,
	// policy, workers, coalescing), admission control and cold-start
	// pricing. Zero-valued fields keep the frozen defaults, and nil keeps
	// the frozen single-service tier.
	Cloud *cloud.TierConfig `json:"cloud,omitempty"`
}

// DeviceSpec is one device slice of a scenario: which world variant this
// device streams and over what network it talks to the cloud.
type DeviceSpec struct {
	// Profile overrides the scenario's base profile for this device.
	Profile string `json:"profile,omitempty"`
	// Workload transforms the profile's scenario script (phase offset,
	// stretch, shuffle, domain subset); the zero value is the identity.
	Workload video.ScriptTransform `json:"workload,omitempty"`
	// Network, when set, replaces the scenario-wide network model for this
	// device.
	Network *NetworkSpec `json:"network,omitempty"`
	// SLOClass names this device's service-level class on the cloud tier
	// (per-class latency/drop metrics). Empty means the default class.
	SLOClass string `json:"slo_class,omitempty"`
}

// NetworkSpec selects the network model per direction. A nil direction
// keeps the calibrated constant default.
type NetworkSpec struct {
	Up   *TraceSpec `json:"up,omitempty"`
	Down *TraceSpec `json:"down,omitempty"`
	// SharedCells > 0 makes Up the aggregate rate of that many cell towers
	// shared by the fleet instead of a per-device link: device i joins cell
	// 1 + i%SharedCells and concurrent uploads within a cell split its
	// bandwidth (processor sharing, re-priced on every join and completion).
	// Only the fleet event engine models the shared medium; runners that
	// price uplinks per device reject configs carrying a cell assignment.
	SharedCells int `json:"shared_cells,omitempty"`
}

// Trace kinds accepted by TraceSpec.Kind.
const (
	TraceConstant = "constant"
	TraceStep     = "step"
	TraceLTE      = "lte"
	TraceDiurnal  = "diurnal"
)

// TraceSpec is the declarative form of one direction's network model.
// Zero-valued fields inherit the direction's calibrated default (base
// bandwidth, latency) or the kind's documented default shape parameters.
type TraceSpec struct {
	// Kind picks the model: constant (default), step, lte or diurnal.
	Kind string `json:"kind,omitempty"`
	// BandwidthBps overrides the base bandwidth (0 = direction default).
	BandwidthBps float64 `json:"bandwidth_bps,omitempty"`
	// LatencySec overrides the one-way latency (0 = direction default).
	LatencySec float64 `json:"latency_sec,omitempty"`

	// Windows are the step trace's rate overrides (outages, degraded or
	// boosted intervals); PeriodSec > 0 repeats the pattern every period.
	Windows   []netsim.Window `json:"windows,omitempty"`
	PeriodSec float64         `json:"period_sec,omitempty"`

	// Seed, StepSec, MinFactor and MaxFactor shape the lte trace
	// (defaults: step 10 s, factors [0.25, 1.25]); StepSec and PeriodSec
	// also quantise and period the diurnal trace (defaults: step 30 s,
	// period 720 s), whose Depth defaults to 0.5.
	Seed      uint64  `json:"seed,omitempty"`
	StepSec   float64 `json:"step_sec,omitempty"`
	MinFactor float64 `json:"min_factor,omitempty"`
	MaxFactor float64 `json:"max_factor,omitempty"`
	Depth     float64 `json:"depth,omitempty"`
}

// clone returns a deep copy, so registry reads never alias caller-mutable
// state.
func (sc *Scenario) clone() *Scenario {
	out := *sc
	out.Devices = make([]DeviceSpec, len(sc.Devices))
	for i, d := range sc.Devices {
		cp := d
		cp.Workload.Domains = append([]int(nil), d.Workload.Domains...)
		if d.Network != nil {
			cp.Network = d.Network.clone()
		}
		out.Devices[i] = cp
	}
	out.Network = *sc.Network.clone()
	if sc.Cloud != nil {
		cl := *sc.Cloud
		out.Cloud = &cl
	}
	return &out
}

func (ns *NetworkSpec) clone() *NetworkSpec {
	out := NetworkSpec{SharedCells: ns.SharedCells}
	if ns.Up != nil {
		up := *ns.Up
		up.Windows = append([]netsim.Window(nil), ns.Up.Windows...)
		out.Up = &up
	}
	if ns.Down != nil {
		down := *ns.Down
		down.Windows = append([]netsim.Window(nil), ns.Down.Windows...)
		out.Down = &down
	}
	return &out
}

// Validate dry-builds everything the scenario names — profiles, script
// transforms, traces — so a bad spec fails at registration or load time,
// not frames into a run.
func (sc *Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("scenario: a scenario needs a name")
	}
	if _, err := sc.baseProfile(); err != nil {
		return fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	if sc.Cloud != nil {
		if err := sc.Cloud.Validate(); err != nil {
			return fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
	}
	slices := sc.Devices
	if len(slices) == 0 {
		slices = []DeviceSpec{{}}
	}
	for i, dev := range slices {
		if _, _, err := sc.deviceProfile(dev); err != nil {
			return fmt.Errorf("scenario %s: device slice %d: %w", sc.Name, i, err)
		}
		net := sc.deviceNetwork(dev)
		if net.SharedCells < 0 {
			return fmt.Errorf("scenario %s: device slice %d: negative shared cell count %d", sc.Name, i, net.SharedCells)
		}
		if _, _, err := buildTrace(net.Up, netsim.DefaultUplink()); err != nil {
			return fmt.Errorf("scenario %s: device slice %d uplink: %w", sc.Name, i, err)
		}
		if _, _, err := buildTrace(net.Down, netsim.DefaultDownlink()); err != nil {
			return fmt.Errorf("scenario %s: device slice %d downlink: %w", sc.Name, i, err)
		}
	}
	return nil
}

// baseProfile resolves the scenario's base profile (ua-detrac when unset).
func (sc *Scenario) baseProfile() (*video.Profile, error) {
	name := sc.Profile
	if name == "" {
		name = video.ProfileDETRAC
	}
	return video.ProfileByName(name)
}

// deviceProfile resolves and transforms one device slice's profile,
// reporting whether it still is the untouched base profile.
func (sc *Scenario) deviceProfile(dev DeviceSpec) (*video.Profile, bool, error) {
	name := dev.Profile
	if name == "" {
		name = sc.Profile
	}
	if name == "" {
		name = video.ProfileDETRAC
	}
	p, err := video.ProfileByName(name)
	if err != nil {
		return nil, false, err
	}
	v, err := video.ApplyScriptTransform(p, dev.Workload)
	if err != nil {
		return nil, false, err
	}
	return v, v == p, nil
}

// deviceNetwork resolves the effective network spec of a device slice.
func (sc *Scenario) deviceNetwork(dev DeviceSpec) NetworkSpec {
	if dev.Network != nil {
		return *dev.Network
	}
	return sc.Network
}

// NaturalDevices returns the scenario's natural fleet size: one device per
// declared slice (1 for a slice-less scenario).
func (sc *Scenario) NaturalDevices() int {
	if len(sc.Devices) == 0 {
		return 1
	}
	return len(sc.Devices)
}

// scenarios is the scenario registry. Values are private copies: Register
// stores a clone and every read hands out another.
var scenarios = registry.New[*Scenario]("scenario", "scenario")

// Register adds a scenario to the registry. Names are case-insensitive and
// must be unique; the scenario is validated (profiles resolved, transforms
// and traces dry-built) before it is accepted.
func Register(sc Scenario) error {
	if err := sc.Validate(); err != nil {
		return err
	}
	_, err := scenarios.Add(registry.Entry[*Scenario]{Name: sc.Name, Summary: sc.Summary, Value: sc.clone()})
	return err
}

// MustRegister is Register for init blocks; it panics on conflicts.
func MustRegister(sc Scenario) {
	if err := Register(sc); err != nil {
		panic(err)
	}
}

// ByName resolves a registered scenario, case-insensitively. The returned
// copy is the caller's to mutate.
func ByName(name string) (*Scenario, error) {
	_, sc, err := scenarios.Lookup(name)
	if err != nil {
		return nil, err
	}
	return sc.clone(), nil
}

// Entries returns every registered scenario in registration order, each
// value a copy the caller may mutate.
func Entries() []registry.Entry[*Scenario] {
	es := scenarios.Entries()
	for i := range es {
		es[i].Value = es[i].Value.clone()
	}
	return es
}
