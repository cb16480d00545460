package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"shoggoth/internal/metrics"
	"shoggoth/internal/video"
)

// fleetFrame is the events-fidelity frame step as it ran one frame at a
// time before frames were played as spans, kept verbatim as the oracle the
// spans are held to: the device compute model ticks, the sampler decides,
// and only sampled frames are materialized — sparsely, without feature
// tensors — for upload.
func (s *System) fleetFrame(t float64) {
	if s.device.Tick(t, s.dt) {
		s.results.FramesProcessed++
	}
	if !s.uploads {
		return
	}
	if s.sampler.Sample(t) {
		// Metadata only: the analytic cloud never reads proposals.
		s.bufferMeta(s.frameIdx, t)
	}
	if u := s.buf; u != nil &&
		(u.size() >= s.cfg.UploadFrames || t-u.first >= s.cfg.UploadMaxWaitSec) {
		s.flushBuffer(t)
	}
}

// perFrameAdvanceTo is AdvanceTo at events fidelity as it ran before
// spans: one scheduler peek, one fleetFrame and one emitWindows per frame.
func (s *System) perFrameAdvanceTo(limit float64) {
	for {
		ft, fok := s.NextFrameTime()
		if fok && ft < limit {
			s.sched.AdvanceTo(ft)
			s.results.FramesTotal++
			s.fleetFrame(ft)
			s.frameIdx++
			s.emitWindows(ft)
			if s.emitted {
				s.emitted = false
				break
			}
			continue
		}
		et, eok := s.sched.NextTime()
		if !eok || et >= limit {
			break
		}
		s.sched.AdvanceTo(et)
		if s.emitted {
			s.emitted = false
			break
		}
	}
	s.wakeFrame = s.predictWake()
	s.wakeCheck.predicted(s)
}

// callLog is an Observer that records every call, in order.
type callLog []string

func (l *callLog) OnWindowMAP(w metrics.WindowScore) { *l = append(*l, fmt.Sprintf("window %+v", w)) }
func (l *callLog) OnRateCommand(pt RatePoint)        { *l = append(*l, fmt.Sprintf("rate %+v", pt)) }
func (l *callLog) OnTrainingSession(rec SessionRecord) {
	*l = append(*l, fmt.Sprintf("session %+v", rec))
}

// advanceState is what a caller of AdvanceTo can see of a deployment
// between calls.
func advanceState(s *System) string {
	next, ok := s.NextEventTime()
	return fmt.Sprintf("frame %d, clock %x, events run %d pending %d, next %x %t, wake %d, frames %d/%d, sampled %d, buffered %d",
		s.frameIdx, math.Float64bits(s.sched.Now()), s.sched.Executed(), s.sched.Pending(),
		math.Float64bits(next), ok, s.wakeFrame, s.results.FramesProcessed, s.results.FramesTotal,
		s.results.SampledFrames, s.buffered())
}

// spanSetup is one private events-fidelity deployment the span tests play.
type spanSetup struct {
	kind   StrategyKind
	upload int
	wait   float64
	rate   float64 // fixed sampling rate for a non-adaptive strategy
}

// spanSetups cover uploads on and off, UploadMaxWaitSec 0, 5 and 25, a
// fixed rate of 0, and fill and deadline flushes.
func spanSetups() []spanSetup {
	var setups []spanSetup
	for _, wait := range []float64{0, 5, 25} {
		for _, upload := range []int{3, 20} {
			setups = append(setups, spanSetup{Shoggoth, upload, wait, 0}, spanSetup{Prompt, upload, wait, 2})
		}
		setups = append(setups, spanSetup{AMS, 5, wait, 0}, spanSetup{Prompt, 20, wait, 0})
	}
	return append(setups, spanSetup{EdgeOnly, 20, 25, 0})
}

func (c spanSetup) String() string {
	return fmt.Sprintf("%s upload %d wait %v rate %v", c.kind, c.upload, c.wait, c.rate)
}

// build returns the deployment with a call-recording observer attached.
func (c spanSetup) build(t *testing.T) (*System, *callLog) {
	cfg := NewConfig(c.kind, video.DETRACProfile())
	cfg.DurationSec = 150
	cfg.Fidelity = FidelityEvents
	cfg.UploadFrames = c.upload
	cfg.UploadMaxWaitSec = c.wait
	cfg.BatchFrames = 8 // training sessions load the device mid-run
	if c.kind == Prompt {
		cfg.SampleRate = c.rate
	}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	log := &callLog{}
	s.SetObserver(log)
	return s, log
}

// TestFleetSpanMatchesPerFrameOracle is the span's differential test, and
// the "woken deliberately early" metamorphic test: private events-fidelity
// deployments driven through AdvanceTo to random limits — limits on frame
// times, on local-event times, between them and short of the next frame —
// play exactly as the per-frame oracle plays them. After every call the
// frame index, the scheduler clock, the local events run, the next event
// and wake frame and the frame counts agree; at the end the Results JSON
// and the observer's call sequence do.
func TestFleetSpanMatchesPerFrameOracle(t *testing.T) {
	setups := spanSetups()
	const rounds = 4 // limit sequences per config
	for i := range rounds * len(setups) {
		c := setups[i%len(setups)]
		rng := rand.New(rand.NewPCG(39, uint64(i)))
		span, spanLog := c.build(t)
		oracle, oracleLog := c.build(t)
		name := fmt.Sprintf("%v, round %d", c, i/len(setups))

		calls, flushes := 0, 0
		for {
			if _, ok := oracle.NextEventTime(); !ok {
				break
			}
			ft, fok := oracle.NextFrameTime()
			var limit float64
			switch rng.IntN(12) {
			case 0: // the end of the run, or past its last event
				limit = oracle.cfg.DurationSec
				if !fok {
					limit = math.Inf(1)
				}
			case 1, 2, 3, 4: // a frame time, a few frames on
				limit = float64(oracle.frameIdx+rng.IntN(300)) * oracle.dt
			case 5, 6, 7: // the next local event's time, else the next frame's
				limit = ft
				if et, ok := oracle.sched.NextTime(); ok {
					limit = et
				}
			case 8, 9: // between frames
				limit = ft + 10*rng.Float64()
			default: // short of the next frame: no frame may play
				limit = ft - oracle.dt*rng.Float64()
			}
			up := oracle.usage.UpBytes
			span.AdvanceTo(limit)
			oracle.perFrameAdvanceTo(limit)
			calls++
			if got, want := advanceState(span), advanceState(oracle); got != want {
				t.Fatalf("%s, call %d AdvanceTo(%v):\n span   %s\n oracle %s", name, calls, limit, got, want)
			}
			if oracle.usage.UpBytes > up {
				flushes++
			}
			if calls > 100000 {
				t.Fatalf("%s: %d AdvanceTo calls without finishing", name, calls)
			}
		}
		got, err := json.Marshal(span.Finish())
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(oracle.Finish())
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s: span and per-frame Results differ:\n span   %s\n oracle %s", name, got, want)
		}
		if fmt.Sprint(*spanLog) != fmt.Sprint(*oracleLog) {
			t.Fatalf("%s: the observer saw\n span   %v\n oracle %v", name, *spanLog, *oracleLog)
		}
		if span.uploads && (c.rate != 0 || c.kind != Prompt) {
			if flushes == 0 || span.results.Sessions == 0 || len(*spanLog) == 0 {
				t.Fatalf("%s: %d flushes, %d training sessions, %d observer calls: the case tests too little",
					name, flushes, span.results.Sessions, len(*spanLog))
			}
		}
		t.Logf("%s: %d calls, %d sampled, %d flushes, %d sessions, %d observer calls, %d frames processed",
			name, calls, span.results.SampledFrames, flushes, span.results.Sessions, len(*spanLog), span.results.FramesProcessed)
	}
}

// TestRunContextMatchesStepLoop holds the blocking run, which plays an
// events-fidelity stream up to each upload with spans between local events,
// to the Step loop, which plays it one frame at a time: the same Results
// JSON and the same observer calls. A cancelled context stops it.
func TestRunContextMatchesStepLoop(t *testing.T) {
	for _, c := range spanSetups() {
		run, runLog := c.build(t)
		step, stepLog := c.build(t)
		res, err := run.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for step.Step() {
		}
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(step.Finish())
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%v: RunContext and the Step loop differ:\n run  %s\n step %s", c, got, want)
		}
		if fmt.Sprint(*runLog) != fmt.Sprint(*stepLog) {
			t.Fatalf("%v: the observer saw\n run  %v\n step %v", c, *runLog, *stepLog)
		}
	}
	s, _ := spanSetups()[0].build(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunContext(ctx); err != context.Canceled {
		t.Fatalf("a cancelled RunContext returned %v, want context.Canceled", err)
	}
}
