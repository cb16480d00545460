package shoggoth_test

import (
	"strings"
	"testing"

	"shoggoth"
	"shoggoth/internal/cloud"
	"shoggoth/internal/scenario"
	"shoggoth/internal/video"
)

// TestRegistriesRejectBlankAndPaddedNames: lookups trim spaces, so a blank
// or space-padded name or alias could never be looked up as registered — a
// blank alias would even answer a blank lookup. Every registry refuses both.
func TestRegistriesRejectBlankAndPaddedNames(t *testing.T) {
	strategy := func(name string, aliases ...string) func() error {
		return func() error {
			_, err := shoggoth.RegisterStrategy(shoggoth.StrategyInfo{
				Name: name, Aliases: aliases, Summary: "test-only",
				New: func() shoggoth.Strategy { return &shoggoth.BaseStrategy{} },
			})
			return err
		}
	}
	kitti := func() *shoggoth.Profile { p, _ := shoggoth.ProfileByName(shoggoth.ProfileKITTI); return p }
	fifo := func() cloud.Policy { p, _ := cloud.NewPolicy(cloud.PolicyFIFO); return p }
	roundRobin := func() cloud.Router { r, _ := cloud.NewRouter(cloud.RouterRoundRobin); return r }
	for _, tc := range []struct {
		what     string
		register func() error
	}{
		{"strategy with a blank alias", strategy("Blanky", "")},
		{"strategy with a padded alias", strategy("Padded-Alias", " padded ")},
		{"strategy with a padded name", strategy(" Padded-Name ")},
		{"blank profile", func() error { return video.RegisterProfile("", "test-only", kitti) }},
		{"padded profile", func() error { return video.RegisterProfile(" kitti2 ", "test-only", kitti) }},
		{"padded scenario", func() error { return scenario.Register(scenario.Scenario{Name: " steady2 "}) }},
		{"blank policy", func() error { return cloud.RegisterPolicy("", "test-only", fifo) }},
		{"padded policy", func() error { return cloud.RegisterPolicy(" lifo2 ", "test-only", fifo) }},
		{"padded router", func() error { return cloud.RegisterRouter(" pin2 ", "test-only", roundRobin) }},
	} {
		if err := tc.register(); err == nil {
			t.Errorf("%s: registered, want an error", tc.what)
		}
	}
	if kind, err := shoggoth.ParseStrategy("   "); err == nil {
		t.Errorf("a blank strategy name resolves to %v", kind)
	}
	if _, err := cloud.NewPolicy("wfq2"); err == nil || strings.Contains(err.Error(), "lifo2") {
		t.Errorf("unknown-policy error %v lists a name no lookup can reach", err)
	}
}
