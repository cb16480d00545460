package shoggoth

import (
	"context"
	"math"
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
	fleet := &Fleet{}
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
	// Stream.Time is the next frame's timestamp: frames rendered so far / FPS.
	renders := int(math.Round(groups[0].stream.Time() * p.FPS))
	if want := int(40 * p.FPS); renders != want || processed != 4*want+int(25*p.FPS) {
		t.Fatalf("%d renders for %d processed frames; want %d for %d", renders, processed, want, 4*want+int(25*p.FPS))
	}
}
