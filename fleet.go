package shoggoth

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"shoggoth/internal/core"
	"shoggoth/internal/detect"
	"shoggoth/internal/video"
)

// StudentCache pretrains at most one student per profile and hands every
// run a clone-source of the identical model. Pretraining is deterministic
// in the profile seed, so a cached student equals a freshly pretrained one;
// the cache only removes redundant work when many sessions share a profile.
// The zero value is ready to use and safe for concurrent callers.
type StudentCache struct {
	mu       sync.Mutex
	students map[string]*detect.Student
	inflight map[string]*sync.Once
}

// Get returns the cached offline-pretrained student for a profile,
// pretraining it on first use. Concurrent callers for the same profile
// pretrain once.
func (c *StudentCache) Get(p *Profile) *detect.Student {
	c.mu.Lock()
	if c.students == nil {
		c.students = make(map[string]*detect.Student)
		c.inflight = make(map[string]*sync.Once)
	}
	if s, ok := c.students[p.Name]; ok {
		c.mu.Unlock()
		return s
	}
	once, ok := c.inflight[p.Name]
	if !ok {
		once = new(sync.Once)
		c.inflight[p.Name] = once
	}
	c.mu.Unlock()

	once.Do(func() {
		s := detect.DefaultPretrainedStudent(p)
		c.mu.Lock()
		c.students[p.Name] = s
		c.mu.Unlock()
	})
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.students[p.Name]
}

// defaultPretrained fills cfg.Pretrained from the cache when the strategy
// deploys a student — the one rule both Fleet and Cluster apply, so every
// runner hands identical models to identical configs.
func defaultPretrained(cfg *Config, cache *StudentCache) {
	if cfg.Pretrained != nil || cfg.Profile == nil {
		return
	}
	if d, ok := core.Lookup(cfg.Kind); ok && d.Traits.Student {
		cfg.Pretrained = cache.Get(cfg.Profile)
	}
}

// Job is one session a Fleet runs: a config plus an optional per-session
// observer.
type Job struct {
	Config   Config
	Observer Observer
}

// Fleet runs many sessions — a (profile, strategy, seed) grid, a sweep, or
// one config per camera — on a bounded worker pool with a shared
// pretrained-student cache. Full-fidelity sessions of one call that watch
// the same video (same *Profile, same Seed) are stepped together on frames
// rendered once; every session's Results equal its lone Run's, byte for
// byte. The zero value is ready to use.
type Fleet struct {
	// Workers bounds the goroutines running sessions; 0 means GOMAXPROCS.
	Workers int
	// Cache, when set, shares pretrained students across fleets; nil uses
	// a fleet-private cache.
	Cache *StudentCache
	// Perf, when set, accumulates every completed session's workspace
	// counters (inference and training wall-clock throughput). Sessions
	// never share scratch — each owns a private workspace — so this is
	// pure post-hoc aggregation and never perturbs Results.
	Perf *PerfCounters

	own    StudentCache
	perfMu sync.Mutex
}

// cache returns the effective student cache.
func (f *Fleet) cache() *StudentCache {
	if f.Cache != nil {
		return f.Cache
	}
	return &f.own
}

// Pretrained returns the fleet's cached offline-pretrained student for a
// profile (exposed so harnesses can hand the identical model elsewhere).
func (f *Fleet) Pretrained(p *Profile) *detect.Student { return f.cache().Get(p) }

// Run executes the configs concurrently and returns results in input
// order. Configs without an explicit Pretrained student get one from the
// shared cache (identical to what they would pretrain themselves). The
// first session error, or a context cancellation, aborts the remainder.
func (f *Fleet) Run(ctx context.Context, cfgs []Config) ([]*Results, error) {
	jobs := make([]Job, len(cfgs))
	for i, cfg := range cfgs {
		jobs[i] = Job{Config: cfg}
	}
	return f.RunJobs(ctx, jobs)
}

// RunJobs is Run with per-session observers.
func (f *Fleet) RunJobs(ctx context.Context, jobs []Job) ([]*Results, error) {
	workers := f.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cache := f.cache()
	jobs = append([]Job(nil), jobs...) // the warm loop below must not mutate the caller's slice

	// Warm the cache serially per distinct profile before fanning out, so
	// the pool spends its workers on sessions rather than duplicate
	// pretraining waits. Pretraining costs seconds per cold profile, so
	// honour cancellation between profiles.
	for i := range jobs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		defaultPretrained(&jobs[i].Config, cache)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	groups := streamGroups(jobs, workers)
	out := make([]*Results, len(jobs))
	errs := make([]error, len(groups))
	// Each worker takes the next group in order until none is left, so one
	// worker runs them — and folds their counters into Perf — in that order.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(groups)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				g := int(next.Add(1)) - 1
				if g >= len(groups) {
					return
				}
				if errs[g] = f.runGroup(ctx, jobs, groups[g], out); errs[g] != nil {
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	// Prefer a real session error over the cancellations it caused.
	var ctxErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if err == context.Canceled || err == context.DeadlineExceeded {
			ctxErr = err
			continue
		}
		return nil, err
	}
	if ctxErr != nil {
		return nil, ctxErr
	}
	return out, nil
}

// streamGroup is the unit a Fleet worker runs: every full-fidelity job
// watching one video — the same *Profile and Seed — so that the worker
// renders the video once for all of them. It is the FrameSource its sessions
// share: the worker renders a frame into it, steps every session once, and
// renders the next, so each session's k-th Step reads frame k. Nothing but
// the sessions themselves (a sample buffer, a replay memory) keeps a frame
// beyond its round. An events-fidelity job renders no video and is a group
// of its own.
type streamGroup struct {
	jobs   []int         // indices into RunJobs' jobs, input order
	stream *video.Stream // set by runGroup; stays nil at events fidelity
	frame  *Frame        // the frame of the round being stepped
}

// Next implements core.FrameSource.
func (g *streamGroup) Next() *Frame { return g.frame }

// streamGroups partitions the jobs into stream groups, in order of first
// appearance. The key is the profile pointer, not its Name: a
// video.ApplyScriptTransform variant keeps its base's name and plays a
// different script.
//
// A group never spans goroutines, so its frames need no locks. The price is
// parallelism, and the splitting rule pays it back: while there are fewer
// groups than min(workers, len(jobs)), the largest group (the first among
// equals) is halved, and each half renders its own copy of the video.
func streamGroups(jobs []Job, workers int) []*streamGroup {
	type stream struct {
		profile *Profile
		seed    uint64
	}
	var groups []*streamGroup
	at := map[stream]*streamGroup{}
	for i := range jobs {
		cfg := &jobs[i].Config
		key := stream{cfg.Profile, cfg.Seed}
		g := at[key]
		if g == nil || !fullFidelity(cfg) {
			g = &streamGroup{}
			groups = append(groups, g)
			if fullFidelity(cfg) {
				at[key] = g
			}
		}
		g.jobs = append(g.jobs, i)
	}
	for len(groups) < min(workers, len(jobs)) {
		big := 0
		for i, g := range groups {
			if len(g.jobs) > len(groups[big].jobs) {
				big = i
			}
		}
		g := groups[big]
		half := (len(g.jobs) + 1) / 2
		groups = slices.Insert(groups, big+1, &streamGroup{jobs: g.jobs[half:]})
		g.jobs = g.jobs[:half]
	}
	return groups
}

// fullFidelity reports whether the run renders its video ("" is the default
// spelling of FidelityFull).
func fullFidelity(cfg *Config) bool {
	return cfg.Fidelity == "" || cfg.Fidelity == FidelityFull
}

// runGroup builds the group's sessions and steps them round-robin, one frame
// at a time, until the longest has played out; a session with a shorter
// DurationSec drops out early. Results land in out at the jobs' own indices.
// A lone session is a group of one.
func (f *Fleet) runGroup(ctx context.Context, jobs []Job, g *streamGroup, out []*Results) error {
	var opts core.SystemOptions
	first := &jobs[g.jobs[0]].Config
	if fullFidelity(first) {
		opts.Frames = g
	}
	systems := make([]*core.System, len(g.jobs))
	for k, i := range g.jobs {
		if err := ctx.Err(); err != nil {
			return err
		}
		sys, err := core.NewSystemOpts(jobs[i].Config, opts)
		if err != nil {
			return err
		}
		if jobs[i].Observer != nil {
			sys.SetObserver(jobs[i].Observer)
		}
		systems[k] = sys
	}
	if opts.Frames != nil {
		g.stream = video.NewStream(first.Profile, first.Seed)
	}
	live := append([]*core.System(nil), systems...)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if len(live) == 0 {
			break
		}
		if g.stream != nil {
			g.frame = g.stream.Next()
		}
		n := 0
		for _, sys := range live {
			if sys.Step() {
				live[n] = sys
				n++
			}
		}
		live = live[:n]
	}
	g.frame = nil
	for k, i := range g.jobs {
		out[i] = systems[k].Finish()
	}
	if f.Perf != nil {
		f.perfMu.Lock()
		for _, sys := range systems {
			f.Perf.Add(sys.Workspace().Perf)
		}
		f.perfMu.Unlock()
	}
	return nil
}

// Grid builds the (profile × strategy) config grid with shared options
// applied to every cell — the Table I shape, ready for Fleet.Run.
func Grid(profiles []*Profile, kinds []StrategyKind, opts ...Option) []Config {
	out := make([]Config, 0, len(profiles)*len(kinds))
	for _, p := range profiles {
		for _, kind := range kinds {
			out = append(out, NewConfig(kind, p, opts...))
		}
	}
	return out
}
