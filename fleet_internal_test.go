package shoggoth

import (
	"context"
	"reflect"
	"testing"
)

// TestStreamGroupsPartitionAndSplit pins what a Fleet worker is handed: jobs
// grouped by (profile pointer, seed) in order of first appearance,
// events-fidelity jobs alone, and — only while there are fewer groups than
// workers and jobs — the largest group halved, first among equals.
func TestStreamGroupsPartitionAndSplit(t *testing.T) {
	profiles := Profiles()
	a, b := profiles[0], profiles[1]
	job := func(p *Profile, seed uint64, fid Fidelity) Job {
		return Job{Config: Config{Profile: p, Seed: seed, Fidelity: fid}}
	}
	jobs := []Job{
		job(a, 1, ""),             // 0
		job(b, 1, FidelityFull),   // 1
		job(a, 1, FidelityFull),   // 2: with 0
		job(a, 2, ""),             // 3: another seed, another video
		job(a, 1, FidelityEvents), // 4: no video
		job(a, 1, FidelityEvents), // 5: no video, and not with 4 either
		job(b, 1, ""),             // 6: with 1
		job(a, 1, ""),             // 7: with 0 and 2
		job(a, 1, ""),             // 8
		job(a, 1, ""),             // 9
	}
	for _, tc := range []struct {
		workers int
		want    [][]int
	}{
		{1, [][]int{{0, 2, 7, 8, 9}, {1, 6}, {3}, {4}, {5}}},
		{5, [][]int{{0, 2, 7, 8, 9}, {1, 6}, {3}, {4}, {5}}},
		{6, [][]int{{0, 2, 7}, {8, 9}, {1, 6}, {3}, {4}, {5}}},
		{8, [][]int{{0}, {2}, {7}, {8, 9}, {1, 6}, {3}, {4}, {5}}},
		{64, [][]int{{0}, {2}, {7}, {8}, {9}, {1}, {6}, {3}, {4}, {5}}},
	} {
		var got [][]int
		for _, g := range streamGroups(jobs, tc.workers) {
			got = append(got, g.jobs)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("workers %d: groups %v, want %v", tc.workers, got, tc.want)
		}
	}
	if got := streamGroups(nil, 4); len(got) != 0 {
		t.Errorf("no jobs: groups %v", got)
	}
}

// TestStreamGroupRendersItsVideoOnce counts video.Stream.Next calls: a group
// of the five stock strategies renders each frame of its video once, a fifth
// of the frames its sessions process between them.
func TestStreamGroupRendersItsVideoOnce(t *testing.T) {
	p, err := ProfileByName(ProfileDETRAC)
	if err != nil {
		t.Fatal(err)
	}
	fleet := &Fleet{Cache: &Students}
	kinds := []StrategyKind{EdgeOnly, CloudOnly, Prompt, AMS, Shoggoth}
	cfgs := Grid([]*Profile{p}, kinds, WithDuration(40), WithSeed(5))
	cfgs[1].DurationSec = 25 // drops out early; the video plays on for the rest
	jobs := make([]Job, len(cfgs))
	for i := range cfgs {
		defaultPretrained(&cfgs[i], fleet.cache())
		jobs[i] = Job{Config: cfgs[i]}
	}
	groups := streamGroups(jobs, 1)
	if len(groups) != 1 {
		t.Fatalf("five strategies on one video are one group, got %d", len(groups))
	}
	out := make([]*Results, len(jobs))
	if err := fleet.runGroup(context.Background(), jobs, groups[0], out); err != nil {
		t.Fatal(err)
	}
	processed := 0
	for _, r := range out {
		processed += r.FramesTotal
	}
	// The next frame's index is the number of frames rendered so far.
	renders := groups[0].stream.Next().Index
	if want := int(40 * p.FPS); renders != want || processed != 4*want+int(25*p.FPS) {
		t.Fatalf("%d renders for %d processed frames; want %d for %d", renders, processed, want, 4*want+int(25*p.FPS))
	}
}

// TestStreamGroupInfersOncePerModelVersion counts inferences through the
// group's memo. Three Edge-Only sessions never train, so they share every
// frame and the group infers each rendered frame once. A Shoggoth session
// beside an Edge-Only one shares exactly the frames it infers before its
// first training session applies — a lone Session of it counts them — and
// infers every later frame itself.
func TestStreamGroupInfersOncePerModelVersion(t *testing.T) {
	p, err := ProfileByName(ProfileDETRAC)
	if err != nil {
		t.Fatal(err)
	}
	config := func(kind StrategyKind) Config {
		cfg := NewConfig(kind, p, WithDuration(300), WithSeed(5))
		cfg.BatchFrames = 20 // train within the short stream
		cfg.Pretrained = Students.Get(p)
		return cfg
	}
	// run steps one group of the kinds and returns its counters and the
	// number of frames it rendered.
	run := func(kinds ...StrategyKind) (*PerfCounters, int64) {
		t.Helper()
		fleet := &Fleet{Perf: &PerfCounters{}}
		jobs := make([]Job, len(kinds))
		for i, kind := range kinds {
			jobs[i] = Job{Config: config(kind)}
		}
		groups := streamGroups(jobs, 1)
		if err := fleet.runGroup(context.Background(), jobs, groups[0], make([]*Results, len(jobs))); err != nil {
			t.Fatal(err)
		}
		return fleet.Perf, int64(groups[0].stream.Next().Index)
	}

	perf, renders := run(EdgeOnly, EdgeOnly, EdgeOnly)
	if perf.InferFrames != 3*renders || perf.InferFrames-perf.InferShared != renders {
		t.Errorf("three Edge-Only sessions inferred %d frames, %d of them shared, over %d rendered; want each rendered frame inferred once",
			perf.InferFrames, perf.InferShared, renders)
	}

	lone, err := NewSession(config(Shoggoth))
	if err != nil {
		t.Fatal(err)
	}
	applied := false
	lone.Observe(&ObserverFuncs{TrainingSession: func(SessionRecord) { applied = true }})
	var pristine int64 // frames inferred before the first update applied
	for more := true; more && !applied; {
		more = lone.Step()
		if !applied {
			pristine = lone.System().Workspace().Perf.InferFrames
		}
	}
	if !applied || pristine == 0 {
		t.Fatalf("the lone Shoggoth session applied no update after inferring (applied=%v, %d frames inferred)", applied, pristine)
	}
	perf, renders = run(EdgeOnly, Shoggoth)
	if own := perf.InferFrames - perf.InferShared - renders; perf.InferShared != pristine || own == 0 {
		t.Errorf("Shoggoth took %d inferences from the memo and ran %d itself; want the %d it made before its first update applied, and the rest",
			perf.InferShared, own, pristine)
	}
}
