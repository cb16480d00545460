// Package strategy configures the registered strategies (the paper's five
// plus anything added via core.Register), providing the preset factory used
// by the CLI tools, the experiment harness and the examples. Names resolve
// in core's strategy registry (core.ParseStrategy); nothing here enumerates
// strategies by hand.
package strategy

import (
	"shoggoth/internal/core"
	"shoggoth/internal/video"
)

// Option mutates a Config preset.
type Option func(*core.Config)

// WithDuration overrides the stream duration in seconds.
func WithDuration(sec float64) Option { return func(c *core.Config) { c.DurationSec = sec } }

// WithSeed overrides the run seed.
func WithSeed(seed uint64) Option { return func(c *core.Config) { c.Seed = seed } }

// WithFixedRate pins the sampling rate (disables the adaptive controller).
func WithFixedRate(fps float64) Option { return func(c *core.Config) { c.SampleRate = fps } }

// WithFidelity selects the run's simulation fidelity (core.FidelityFull,
// core.FidelityEvents or core.FidelitySampled).
func WithFidelity(f core.Fidelity) Option { return func(c *core.Config) { c.Fidelity = f } }

// WithSampledFidelity selects sampled fidelity with an explicit sampled
// device fraction and subset seed (frac 0 defaults to
// core.DefaultSampledFrac; seed 0 means the run seed stands in).
func WithSampledFidelity(frac float64, seed uint64) Option {
	return func(c *core.Config) {
		c.Fidelity = core.FidelitySampled
		c.SampledFrac = frac
		c.SampledSeed = seed
	}
}

// WithComputeTier selects the arithmetic tier ("", "exact" or "fast"): the
// exact tier is the frozen bit-identical default, the fast tier runs the
// blocked fast-math kernels with parallel gradient accumulation.
func WithComputeTier(tier string) Option { return func(c *core.Config) { c.ComputeTier = tier } }

// WithAccumWorkers sets how many workers execute the fast tier's fixed
// gradient-accumulation shards (byte-identical results for every value).
func WithAccumWorkers(n int) Option { return func(c *core.Config) { c.Trainer.AccumWorkers = n } }

// WithCycles sets the duration to n passes of the profile's scenario script.
func WithCycles(n float64) Option {
	return func(c *core.Config) { c.DurationSec = n * c.Profile.ScriptDuration() }
}

// Configure builds the calibrated Config for a strategy on a profile with
// optional overrides.
func Configure(kind core.StrategyKind, p *video.Profile, opts ...Option) core.Config {
	cfg := core.NewConfig(kind, p)
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}
