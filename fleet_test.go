package shoggoth_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"shoggoth"
	"shoggoth/internal/video"
)

// observed is everything an Observer is told, in order of arrival.
type observed struct {
	Windows  []shoggoth.WindowScore
	Rates    []shoggoth.RatePoint
	Sessions []shoggoth.SessionRecord
}

func (o *observed) observer() shoggoth.Observer {
	return &shoggoth.ObserverFuncs{
		WindowMAP:       func(w shoggoth.WindowScore) { o.Windows = append(o.Windows, w) },
		RateCommand:     func(pt shoggoth.RatePoint) { o.Rates = append(o.Rates, pt) },
		TrainingSession: func(rec shoggoth.SessionRecord) { o.Sessions = append(o.Sessions, rec) },
	}
}

// TestFleetObserversSeeWhatALoneSessionShows: stepping a group's sessions in
// lockstep interleaves their events in wall time but changes none of them —
// each job's observer hears the window, rate and training events a lone
// Session of the same config reports.
func TestFleetObserversSeeWhatALoneSessionShows(t *testing.T) {
	jobs := make([]shoggoth.Job, len(stockKinds))
	heard := make([]observed, len(stockKinds))
	for i, kind := range stockKinds {
		cfg := testConfig(t, kind, 200)
		cfg.BatchFrames = 20 // train within the short stream
		jobs[i] = shoggoth.Job{Config: cfg, Observer: heard[i].observer()}
	}
	fleet := &shoggoth.Fleet{Workers: 1}
	if _, err := fleet.RunJobs(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	var all observed
	for i, job := range jobs {
		sess, err := shoggoth.NewSession(job.Config)
		if err != nil {
			t.Fatal(err)
		}
		var alone observed
		sess.Observe(alone.observer())
		if _, err := sess.RunContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(heard[i], alone) {
			t.Fatalf("%s: the fleet's observer heard\n%+v\na lone session's\n%+v", job.Config.Kind, heard[i], alone)
		}
		all.Windows = append(all.Windows, alone.Windows...)
		all.Rates = append(all.Rates, alone.Rates...)
		all.Sessions = append(all.Sessions, alone.Sessions...)
	}
	if len(all.Windows) == 0 || len(all.Rates) == 0 || len(all.Sessions) == 0 {
		t.Fatalf("the group was meant to produce every kind of event: %d windows, %d rate commands, %d sessions",
			len(all.Windows), len(all.Rates), len(all.Sessions))
	}
}

// TestFleetGroupsByProfileIdentityNotName: a script-transformed variant keeps
// its base profile's Name (so both share one pretrained student) but plays a
// different video. In one Fleet.Run at one seed each must get its own frames,
// i.e. equal its own lone Run; grouping by name would feed the variant its
// base's video.
func TestFleetGroupsByProfileIdentityNotName(t *testing.T) {
	base := testConfig(t, shoggoth.EdgeOnly, 60)
	variant, err := video.ApplyScriptTransform(base.Profile, shoggoth.ScriptTransform{PhaseSec: 200})
	if err != nil {
		t.Fatal(err)
	}
	if variant == base.Profile || variant.Name != base.Profile.Name {
		t.Fatalf("a transformed variant is a distinct profile under its base's name; got %q vs %q", variant.Name, base.Profile.Name)
	}
	var cfgs []shoggoth.Config
	for _, p := range []*shoggoth.Profile{base.Profile, variant} {
		for _, kind := range []shoggoth.StrategyKind{shoggoth.EdgeOnly, shoggoth.CloudOnly} {
			cfg := testConfig(t, kind, 60)
			cfg.Profile = p
			cfgs = append(cfgs, cfg)
		}
	}
	fleet := &shoggoth.Fleet{Workers: 1}
	got, err := fleet.Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		want, err := shoggoth.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := encodeJSON(t, got[i]), encodeJSON(t, want); !bytes.Equal(g, w) {
			t.Fatalf("job %d diverged from its own lone run:\nfleet: %s\nalone: %s", i, g, w)
		}
	}
	if bytes.Equal(encodeJSON(t, got[0]), encodeJSON(t, got[2])) {
		t.Fatal("the variant was meant to play a different video from its base")
	}
}
