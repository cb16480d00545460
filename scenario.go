package shoggoth

import (
	"shoggoth/internal/cloud"
	"shoggoth/internal/core"
	"shoggoth/internal/netsim"
	"shoggoth/internal/registry"
	"shoggoth/internal/scenario"
	"shoggoth/internal/video"
)

// Scenario types of the public API. A Scenario composes a workload spec
// (profile + script transforms), a network model (constant links or
// time-varying traces) and a per-device fleet layout; resolve stock ones
// with ScenarioByName, load custom ones with LoadScenarioFile, and turn
// either into runnable configs with Scenario.Configs.
type (
	// Scenario is one composable deployment world (see internal/scenario).
	Scenario = scenario.Scenario
	// ScenarioDevice is one device slice of a scenario's fleet layout.
	ScenarioDevice = scenario.DeviceSpec
	// ScenarioNetwork selects the network model per direction.
	ScenarioNetwork = scenario.NetworkSpec
	// TraceSpec is the declarative form of one direction's network model.
	TraceSpec = scenario.TraceSpec
	// ScriptTransform rewrites a profile's scenario script (phase offset,
	// stretch, shuffle, domain subset) without touching its world data.
	ScriptTransform = video.ScriptTransform

	// Trace is a time-varying network model: bandwidth as a
	// piecewise-constant pure function of virtual time. Install one via
	// Config.UplinkTrace / Config.DownlinkTrace, or declaratively through
	// a Scenario's TraceSpecs.
	Trace = netsim.Trace
	// Link is the constant-rate network model (and the degenerate Trace).
	Link = netsim.Link
	// TraceWindow is one rate-override window of a step trace.
	TraceWindow = netsim.Window
)

// Time-varying trace constructors, re-exported for direct Config use.
var (
	// NewStepTrace builds a base link overridden by rate windows
	// (outages, degraded intervals), optionally repeating every period.
	NewStepTrace = netsim.NewStepTrace
	// NewLTETrace builds a seeded stochastic LTE-like fading trace.
	NewLTETrace = netsim.NewLTETrace
	// NewDiurnalTrace builds a raised-cosine daily-load trace.
	NewDiurnalTrace = netsim.NewDiurnalTrace
)

// ScenarioByName resolves a registered scenario ("steady", "rush-hour",
// "day-night", "lossy-uplink", "degraded-cell", "cell-tower",
// "hetero-fleet", "multi-cloud", plus any registered via
// RegisterScenario), case-insensitively.
func ScenarioByName(name string) (*Scenario, error) { return scenario.ByName(name) }

// Scenarios returns a copy of every registered scenario in registration
// order (the stock set first).
func Scenarios() []Scenario { return scenario.All() }

// RegisterScenario adds a scenario to the registry after validating it
// (profiles resolved, script transforms and traces dry-built).
func RegisterScenario(sc Scenario) error { return scenario.Register(sc) }

// LoadScenarioFile decodes and validates a custom scenario spec from a
// JSON file (not auto-registered; see examples/scenarios for the format).
func LoadScenarioFile(path string) (*Scenario, error) { return scenario.LoadFile(path) }

// ScenarioConfigs builds the per-device configs of an n-device fleet
// running a scenario under one strategy — ready for Run/Session (one
// device), a Fleet, or a Cluster. n <= 0 means the scenario's natural size
// (one device per declared slice).
func ScenarioConfigs(sc *Scenario, kind StrategyKind, n int, opts ...Option) ([]Config, error) {
	return sc.Configs(kind, n, opts...)
}

// RegistryEntry is one named, one-line-described entry of a registry —
// the uniform row every listing (shoggoth-sim -list) prints.
type RegistryEntry struct {
	Name    string
	Summary string
}

// StrategyEntries lists every registered strategy with its summary.
func StrategyEntries() []RegistryEntry { return entries(core.Strategies()) }

// ProfileEntries lists every registered dataset profile with its summary.
func ProfileEntries() []RegistryEntry { return entries(video.Profiles()) }

// CloudPolicyEntries lists every registered cloud scheduling policy with
// its summary — the valid values of Config.Cloud.Service.Policy and
// Cluster.Policy.
func CloudPolicyEntries() []RegistryEntry { return entries(cloud.Policies()) }

// CloudRouterEntries lists every registered cloud replica router with its
// summary — the valid values of Config.Cloud.Router and Cluster.Router.
func CloudRouterEntries() []RegistryEntry { return entries(cloud.Routers()) }

// ScenarioEntries lists every registered scenario with its summary.
func ScenarioEntries() []RegistryEntry { return entries(scenario.Entries()) }

// entries drops the values of a registry listing, keeping its order.
func entries[V any](es []registry.Entry[V]) []RegistryEntry {
	out := make([]RegistryEntry, len(es))
	for i, e := range es {
		out[i] = RegistryEntry{Name: e.Name, Summary: e.Summary}
	}
	return out
}

// RegisterProfile adds a dataset profile to the registry; registered
// profiles resolve in ProfileByName, scenarios and the CLI exactly like
// the stock three.
func RegisterProfile(name, summary string, factory func() *Profile) error {
	return video.RegisterProfile(name, summary, factory)
}
