package shoggoth_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"shoggoth"
)

// detrac returns the UA-DETRAC profile most root tests run on.
func detrac(t testing.TB) *shoggoth.Profile {
	t.Helper()
	p, err := shoggoth.ProfileByName(shoggoth.ProfileDETRAC)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// testConfig returns a short DETRAC run of a strategy with the suite's
// pretrained student.
func testConfig(t testing.TB, kind shoggoth.StrategyKind, duration float64) shoggoth.Config {
	cfg := shoggoth.NewConfig(kind, detrac(t), shoggoth.WithDuration(duration))
	cfg.Pretrained = shoggoth.Students.Get(cfg.Profile)
	return cfg
}

// TestRunMatchesSessionForEveryStockStrategy is the API-redesign identity
// contract: for each stock strategy a Session, whose observer must hear
// every window score, rate command and training session its Results hold,
// returns the Results of the blocking Run.
func TestRunMatchesSessionForEveryStockStrategy(t *testing.T) {
	for _, kind := range stockKinds {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := testConfig(t, kind, 90)
			sess, err := shoggoth.NewSession(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var heard observed
			sess.Observe(heard.observer())
			res, err := sess.RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if want := (observed{res.WindowMAPs, res.RateSeries, res.SessionTimes}); !reflect.DeepEqual(heard, want) {
				t.Fatalf("the observer heard\n%+v\nthe results hold\n%+v", heard, want)
			}
			if got, want := encodeJSON(t, res), encodeJSON(t, serially(t, []shoggoth.Config{cfg}).Devices[0]); !bytes.Equal(got, want) {
				t.Fatalf("Session diverged from Run:\nsess: %.2000s\nrun:  %.2000s", got, want)
			}
		})
	}
}

func TestSessionStepAndResultsIdempotent(t *testing.T) {
	cfg := testConfig(t, shoggoth.EdgeOnly, 20)
	sess, err := shoggoth.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := 1 // the final Step returns false after processing its frame
	for sess.Step() {
		steps++
	}
	if want := int(20 * cfg.Profile.FPS); steps != want {
		t.Fatalf("stepped %d frames, want %d", steps, want)
	}
	a := sess.Results()
	if sess.Step() {
		t.Fatal("Step after Results must report no frames remain")
	}
	if b := sess.Results(); b != a {
		t.Fatal("Results must be idempotent")
	}
	if a.FramesTotal != steps {
		t.Fatalf("results count %d frames, stepped %d", a.FramesTotal, steps)
	}
}

func TestPartialSessionSettlesAtElapsedTime(t *testing.T) {
	cfg := testConfig(t, shoggoth.CloudOnly, 60)
	sess, err := shoggoth.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	half := int(30 * cfg.Profile.FPS)
	for i := 0; i < half && sess.Step(); i++ {
	}
	res := sess.Results()
	if res.Duration > 30.1 || res.Duration < 29.9 {
		t.Fatalf("truncated run should settle at ~30s elapsed, got %v", res.Duration)
	}
	// Bandwidth rates must be over the elapsed time, not the configured 60s.
	full, err := shoggoth.Run(testConfig(t, shoggoth.CloudOnly, 30))
	if err != nil {
		t.Fatal(err)
	}
	if res.UpKbps < full.UpKbps*0.9 || res.UpKbps > full.UpKbps*1.1 {
		t.Fatalf("truncated-run uplink %v should match a 30s run's %v", res.UpKbps, full.UpKbps)
	}
}

func TestSessionRunContextCancellation(t *testing.T) {
	cfg := testConfig(t, shoggoth.EdgeOnly, 60)
	sess, err := shoggoth.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.RunContext(ctx); err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
