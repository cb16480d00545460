package strategy

import (
	"testing"

	"shoggoth/internal/core"
	"shoggoth/internal/video"
)

func TestAllDescriptorsCoverEveryKind(t *testing.T) {
	entries := core.Strategies()
	for _, e := range entries {
		if e.Name == "" || e.Summary == "" {
			t.Fatal("descriptor must have name and summary")
		}
	}
	for _, k := range core.StrategyKinds() {
		if int(k) >= len(entries) || entries[k].Name != k.String() {
			t.Fatalf("descriptor missing for %v", k)
		}
	}
}

func TestConfigureOptions(t *testing.T) {
	p := video.KITTIProfile()
	cfg := Configure(core.Shoggoth, p,
		WithDuration(123), WithSeed(9), WithFixedRate(0.8))
	if cfg.DurationSec != 123 || cfg.Seed != 9 || cfg.SampleRate != 0.8 {
		t.Fatalf("options not applied: %+v", cfg)
	}
	cfg = Configure(core.Shoggoth, p, WithCycles(3))
	if cfg.DurationSec != 3*p.ScriptDuration() {
		t.Fatalf("WithCycles wrong: %v", cfg.DurationSec)
	}
}

func TestPromptPresetFixesRate(t *testing.T) {
	p := video.DETRACProfile()
	cfg := Configure(core.Prompt, p)
	if cfg.SampleRate != cfg.Controller.RMax {
		t.Fatalf("Prompt preset should pin the max rate, got %v", cfg.SampleRate)
	}
}
