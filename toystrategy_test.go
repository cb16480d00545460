package shoggoth_test

// The pluggability proof for the Strategy registry: a sixth strategy,
// defined entirely outside internal/core, registers and runs end-to-end —
// configuration, parsing, Session, Fleet — with zero edits inside the
// deployment loop.

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"slices"
	"sync"
	"testing"

	"shoggoth"
)

// tortoiseStrategy is a deliberately lazy sixth strategy: it runs the edge
// student on every frame but only samples for upload during the second half
// of the stream.
type tortoiseStrategy struct {
	shoggoth.BaseStrategy
	frames int
}

// tortoiseWitness, when set, is shown every frame a tortoise session is
// handed, before the session reads it (TestFleetSharedFramesAreReadOnly).
var tortoiseWitness func(f *shoggoth.Frame)

func (st *tortoiseStrategy) OnFrame(f *shoggoth.Frame, t, dt float64) {
	if tortoiseWitness != nil {
		tortoiseWitness(f)
	}
	st.frames++
	st.Sys.InferFrame(f, t, dt)
	if t >= st.Sys.Config().DurationSec/2 {
		st.Sys.SampleForUpload(f, t)
	}
}

func (st *tortoiseStrategy) OnCloudBatch(frames []*shoggoth.Frame, labels [][]shoggoth.TeacherLabel, done float64) {
	st.Sys.DepositLabels(frames, labels, done)
}

var (
	tortoiseOnce sync.Once
	tortoiseKind shoggoth.StrategyKind
	tortoiseErr  error
)

func registerTortoise() (shoggoth.StrategyKind, error) {
	tortoiseOnce.Do(func() {
		tortoiseKind, tortoiseErr = shoggoth.RegisterStrategy(shoggoth.StrategyInfo{
			Name:    "Tortoise",
			Aliases: []string{"toy"},
			Summary: "test-only sixth strategy: edge inference, late uploads",
			Traits:  shoggoth.Traits{Student: true, Uploads: true, Adaptive: true},
			New:     func() shoggoth.Strategy { return &tortoiseStrategy{} },
		})
	})
	return tortoiseKind, tortoiseErr
}

func TestSixthStrategyRegistersAndRuns(t *testing.T) {
	kind, err := registerTortoise()
	if err != nil {
		t.Fatal(err)
	}

	// The registry round-trips the new strategy like any stock one.
	if got, err := shoggoth.ParseStrategy("tortoise"); err != nil || got != kind {
		t.Fatalf("ParseStrategy(tortoise) = %v, %v; want %v", got, err, kind)
	}
	if got, err := shoggoth.ParseStrategy("TOY"); err != nil || got != kind {
		t.Fatalf("alias parse = %v, %v; want %v", got, err, kind)
	}
	found := false
	for _, k := range shoggoth.StrategyKinds() {
		found = found || k == kind
	}
	if !found {
		t.Fatal("StrategyKinds must list the registered strategy")
	}

	// …and it runs end-to-end through the standard entry points.
	cfg := testConfig(t, kind, 120)
	res, err := shoggoth.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "Tortoise" {
		t.Fatalf("results name the strategy %q", res.Strategy)
	}
	if res.FramesProcessed == 0 || res.MAP50 <= 0 {
		t.Fatalf("tortoise should infer frames: %+v", res)
	}
	if res.SampledFrames == 0 || res.UpBytes == 0 {
		t.Fatal("tortoise should sample and upload in the second half")
	}
	if len(res.RateSeries) == 0 {
		t.Fatal("adaptive trait should wire the controller")
	}

	// Determinism contract holds for registered strategies too.
	again, err := shoggoth.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MAP50 != again.MAP50 || res.UpBytes != again.UpBytes {
		t.Fatalf("registered strategy must be deterministic: %v vs %v", res, again)
	}
}

// stockKinds are the five strategies the paper evaluates.
var stockKinds = []shoggoth.StrategyKind{
	shoggoth.EdgeOnly, shoggoth.CloudOnly, shoggoth.Prompt, shoggoth.AMS, shoggoth.Shoggoth,
}

// resultsJSON is the whole of a Results as its stable JSON schema prints it.
func resultsJSON(t *testing.T, r *shoggoth.Results) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFleetRunsGridIdenticalToSerialRuns holds the Fleet's lockstep stepping
// to the lone blocking Run, whole Results byte for byte: five strategies on
// one video share its frames; riding along in the same call are a session
// that ends early (it drops out of its group's rounds), one at another seed
// (a video of its own) and one at events fidelity (no video at all). One
// worker runs the groups whole, two run them side by side, and eight is more
// workers than groups, so every group is split down to single sessions.
func TestFleetRunsGridIdenticalToSerialRuns(t *testing.T) {
	p, err := shoggoth.ProfileByName(shoggoth.ProfileDETRAC)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := shoggoth.Grid([]*shoggoth.Profile{p}, stockKinds, shoggoth.WithDuration(200), shoggoth.WithSeed(3))
	cfgs = slices.Insert(cfgs, 2,
		shoggoth.NewConfig(shoggoth.Shoggoth, p, shoggoth.WithDuration(120), shoggoth.WithSeed(3)),
		shoggoth.NewConfig(shoggoth.Prompt, p, shoggoth.WithDuration(200), shoggoth.WithSeed(4)))
	cfgs = append(cfgs, shoggoth.NewConfig(shoggoth.Shoggoth, p, shoggoth.WithDuration(200), shoggoth.WithSeed(3),
		shoggoth.WithFidelity(shoggoth.FidelityEvents)))
	for i := range cfgs {
		cfgs[i].BatchFrames = 20 // train within the short stream
	}

	var cache shoggoth.StudentCache
	want := make([]string, len(cfgs))
	trained := map[shoggoth.StrategyKind]bool{}
	for i, cfg := range cfgs {
		if cfg.Kind != shoggoth.CloudOnly {
			cfg.Pretrained = cache.Get(p) // what the fleet auto-fills
		}
		res, err := shoggoth.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resultsJSON(t, res)
		trained[cfg.Kind] = trained[cfg.Kind] || res.Sessions > 0
	}
	if !trained[shoggoth.Prompt] || !trained[shoggoth.AMS] || !trained[shoggoth.Shoggoth] {
		t.Fatalf("every training strategy was meant to complete a session: %v", trained)
	}
	for _, workers := range []int{1, 2, 8} {
		fleet := &shoggoth.Fleet{Workers: workers, Cache: &cache}
		got, err := fleet.Run(context.Background(), cfgs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(cfgs) {
			t.Fatalf("workers %d: want %d results, got %d", workers, len(cfgs), len(got))
		}
		for i := range cfgs {
			if g := resultsJSON(t, got[i]); g != want[i] {
				t.Fatalf("workers %d: fleet diverged from the serial run of job %d (%s):\nfleet:  %s\nserial: %s",
					workers, i, cfgs[i].Kind, g, want[i])
			}
		}
	}
}

func TestFleetSharesOnePretrainedStudentPerProfile(t *testing.T) {
	p, err := shoggoth.ProfileByName(shoggoth.ProfileKITTI)
	if err != nil {
		t.Fatal(err)
	}
	fleet := &shoggoth.Fleet{}
	if fleet.Pretrained(p) != fleet.Pretrained(p) {
		t.Fatal("fleet cache must pretrain once per profile")
	}
	var shared shoggoth.StudentCache
	a := &shoggoth.Fleet{Cache: &shared}
	b := &shoggoth.Fleet{Cache: &shared}
	if a.Pretrained(p) != b.Pretrained(p) {
		t.Fatal("fleets sharing a cache must share students")
	}
}

func TestFleetPropagatesErrorsAndCancellation(t *testing.T) {
	p, err := shoggoth.ProfileByName(shoggoth.ProfileDETRAC)
	if err != nil {
		t.Fatal(err)
	}
	bad := shoggoth.NewConfig(shoggoth.EdgeOnly, p)
	bad.DurationSec = -1
	var cache shoggoth.StudentCache
	fleet := &shoggoth.Fleet{Cache: &cache}
	if _, err := fleet.Run(context.Background(), []shoggoth.Config{bad}); err == nil {
		t.Fatal("invalid config must surface as a fleet error")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfgs := shoggoth.Grid([]*shoggoth.Profile{p},
		[]shoggoth.StrategyKind{shoggoth.EdgeOnly}, shoggoth.WithDuration(30))
	if _, err := fleet.Run(ctx, cfgs); err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}

	// An invalid config in the middle of a stream group fails the fleet with
	// its own error, not with the cancellation it causes; one worker keeps
	// the three sessions in one group.
	cfgs = shoggoth.Grid([]*shoggoth.Profile{p},
		[]shoggoth.StrategyKind{shoggoth.EdgeOnly, shoggoth.Prompt, shoggoth.CloudOnly}, shoggoth.WithDuration(30))
	cfgs[1].DurationSec = -1
	one := &shoggoth.Fleet{Workers: 1, Cache: &cache}
	if res, err := one.Run(context.Background(), cfgs); err == nil || errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("invalid config inside a group: results %v, error %v", res, err)
	}

	// A context cancelled while the group is mid-stream ends the run with
	// context.Canceled and no Results, partial or otherwise.
	cfgs[1].DurationSec = 30
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	jobs := make([]shoggoth.Job, len(cfgs))
	windows := 0
	for i, cfg := range cfgs {
		jobs[i] = shoggoth.Job{Config: cfg, Observer: &shoggoth.ObserverFuncs{
			WindowMAP: func(shoggoth.WindowScore) { windows++; cancel() },
		}}
	}
	if res, err := one.RunJobs(ctx, jobs); err != context.Canceled || res != nil {
		t.Fatalf("cancelled mid-stream: results %v, error %v; want nil, context.Canceled", res, err)
	}
	if windows == 0 || windows > len(jobs) {
		t.Fatalf("%d windows closed before the run stopped; want it to stop within the round of the first", windows)
	}
}

// TestFleetSharedFramesAreReadOnly is the proof behind sharing one rendered
// frame among a group's sessions: a witness session at the head of a
// five-strategy group hashes every frame the moment it is rendered — before
// any session has read it — and again after the whole group has finished,
// sample buffers, teacher labeling, replay memories and training included.
func TestFleetSharedFramesAreReadOnly(t *testing.T) {
	kind, err := registerTortoise()
	if err != nil {
		t.Fatal(err)
	}
	sum := func(f *shoggoth.Frame) [sha256.Size]byte {
		b, err := json.Marshal(f) // proposals, features, ground truth: every field, floats round-trip exact
		if err != nil {
			t.Fatal(err)
		}
		return sha256.Sum256(b)
	}
	var frames []*shoggoth.Frame
	var sums [][sha256.Size]byte
	tortoiseWitness = func(f *shoggoth.Frame) {
		frames = append(frames, f)
		sums = append(sums, sum(f))
	}
	defer func() { tortoiseWitness = nil }()

	const duration = 200
	cfgs := []shoggoth.Config{testConfig(t, kind, duration)}
	for _, k := range stockKinds {
		cfgs = append(cfgs, testConfig(t, k, duration))
	}
	for i := range cfgs {
		cfgs[i].BatchFrames = 20 // train within the short stream
	}
	fleet := &shoggoth.Fleet{Workers: 1}
	res, err := fleet.Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if want := int(duration * cfgs[0].Profile.FPS); len(frames) != want {
		t.Fatalf("witness saw %d frames, want %d", len(frames), want)
	}
	if last := res[len(res)-1]; last.Sessions == 0 || last.SampledFrames == 0 {
		t.Fatalf("the group was meant to upload and train on the shared frames: %+v", last)
	}
	for i, f := range frames {
		if f.Index != i {
			t.Fatalf("frame %d carries index %d", i, f.Index)
		}
		if sum(f) != sums[i] {
			t.Fatalf("frame %d changed after it was rendered", i)
		}
	}
}
