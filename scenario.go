package shoggoth

import (
	"shoggoth/internal/cloud"
	"shoggoth/internal/core"
	"shoggoth/internal/registry"
	"shoggoth/internal/scenario"
	"shoggoth/internal/video"
)

// Scenario is one composable deployment world (see internal/scenario): a
// workload spec (profile + script transforms), a network model (constant
// links or time-varying traces) and a per-device fleet layout. Resolve a
// registered one with ScenarioByName and turn it into runnable configs with
// ScenarioConfigs.
type Scenario = scenario.Scenario

// ScenarioByName resolves a registered scenario ("steady", "rush-hour",
// "day-night", "lossy-uplink", "degraded-cell", "cell-tower",
// "hetero-fleet", "multi-cloud"), case-insensitively.
func ScenarioByName(name string) (*Scenario, error) { return scenario.ByName(name) }

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
