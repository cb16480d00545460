package edge

import (
	"math"
	"math/rand/v2"
	"testing"

	"shoggoth/internal/detect"
	"shoggoth/internal/metrics"
)

func paperSessionConfig() detect.TrainerConfig {
	cfg := detect.DefaultTrainerConfig()
	// Paper values: batch 300 new + 1500 replay, mini-batch 64, 8 epochs.
	return cfg
}

func TestCostModelReproducesTable2Baseline(t *testing.T) {
	m := DefaultCostModel()
	c := m.Session(paperSessionConfig(), false, 300, 1500)
	// Paper: forward 17.8 s, backward 0.8 s, overall 18.6 s.
	if math.Abs(c.ForwardSec-17.8) > 0.5 {
		t.Fatalf("baseline forward %v, want ≈17.8", c.ForwardSec)
	}
	if math.Abs(c.BackwardSec-0.8) > 0.2 {
		t.Fatalf("baseline backward %v, want ≈0.8", c.BackwardSec)
	}
	if math.Abs(c.TotalSec()-18.6) > 0.7 {
		t.Fatalf("baseline overall %v, want ≈18.6", c.TotalSec())
	}
}

func TestCostModelTable2Ordering(t *testing.T) {
	m := DefaultCostModel()
	base := m.Session(paperSessionConfig(), false, 300, 1500).TotalSec()

	frozen := paperSessionConfig()
	frozen.CompletelyFrozen = true
	frozenT := m.Session(frozen, false, 300, 1500).TotalSec()

	conv := paperSessionConfig()
	conv.Placement = detect.PlacementConv54
	convT := m.Session(conv, false, 300, 1500).TotalSec()

	input := paperSessionConfig()
	input.Placement = detect.PlacementInput
	inputT := m.Session(input, false, 300, 1500).TotalSec()

	noreplay := paperSessionConfig()
	noreplay.NoReplay = true
	noreplayT := m.Session(noreplay, false, 300, 0).TotalSec()

	// Table II overall ordering: Input ≫ NoReplay > Conv5_4 > Ours ≈ Freeze.
	if !(inputT > noreplayT && noreplayT > convT && convT > base) {
		t.Fatalf("ordering violated: input=%v noreplay=%v conv=%v base=%v", inputT, noreplayT, convT, base)
	}
	if math.Abs(frozenT-base) > 1.0 {
		t.Fatalf("freeze should cost ≈ baseline: %v vs %v", frozenT, base)
	}
	if inputT < 20*base {
		t.Fatalf("input replay should be dramatically slower: %v vs %v", inputT, base)
	}
}

func TestCostModelFirstSessionSlower(t *testing.T) {
	m := DefaultCostModel()
	first := m.Session(paperSessionConfig(), true, 300, 0)
	later := m.Session(paperSessionConfig(), false, 300, 1500)
	if first.TotalSec() <= later.TotalSec() {
		t.Fatalf("first session (front trainable) should cost more: %v vs %v", first.TotalSec(), later.TotalSec())
	}
}

func TestCostModelEmptyBatch(t *testing.T) {
	m := DefaultCostModel()
	if c := m.Session(paperSessionConfig(), false, 0, 1500); c.TotalSec() != 0 {
		t.Fatal("empty batch should cost nothing")
	}
}

func TestDeviceFPSDropsDuringTraining(t *testing.T) {
	d := NewDevice(DefaultDeviceConfig())
	if got := d.EffectiveFPS(0); got != 30 {
		t.Fatalf("idle FPS should be 30, got %v", got)
	}
	d.BeginTraining(10)
	if got := d.EffectiveFPS(5); got != 15 {
		t.Fatalf("training FPS should be 15, got %v", got)
	}
	if got := d.EffectiveFPS(11); got != 30 {
		t.Fatalf("FPS should recover after training, got %v", got)
	}
}

func TestDeviceEncodingReducesFPS(t *testing.T) {
	d := NewDevice(DefaultDeviceConfig())
	d.BeginEncoding(2)
	if got := d.EffectiveFPS(1); got >= 30 {
		t.Fatalf("encoding should reduce FPS, got %v", got)
	}
	d.BeginTraining(2)
	combined := d.EffectiveFPS(1)
	if combined >= 15 {
		t.Fatalf("training+encoding should stack, got %v", combined)
	}
}

func TestDeviceTickProcessesAtEffectiveRate(t *testing.T) {
	d := NewDevice(DefaultDeviceConfig())
	d.BeginTraining(1e9) // always training: 15 of 30 fps
	processed := 0
	const frames = 3000
	dt := 1.0 / 30
	for i := 0; i < frames; i++ {
		if d.Tick(float64(i)*dt, dt) {
			processed++
		}
	}
	got := float64(processed) / float64(frames)
	if math.Abs(got-0.5) > 0.02 {
		t.Fatalf("should process ~50%% of frames while training, got %v", got)
	}
}

func TestDeviceUsageMonotoneWithLoad(t *testing.T) {
	d := NewDevice(DefaultDeviceConfig())
	idle := d.Usage(0)
	d.BeginTraining(10)
	training := d.Usage(5)
	d.BeginEncoding(10)
	both := d.Usage(5)
	if !(idle < training && training < both) {
		t.Fatalf("usage must grow with load: %v %v %v", idle, training, both)
	}
	if both > 1 {
		t.Fatalf("usage must be capped at 1, got %v", both)
	}
}

func TestDrainUsageReport(t *testing.T) {
	d := NewDevice(DefaultDeviceConfig())
	dt := 1.0 / 30
	for i := 0; i < 30; i++ {
		d.Tick(float64(i)*dt, dt)
	}
	r1 := d.DrainUsageReport()
	if math.Abs(r1-d.Config.IdleLoad) > 1e-9 {
		t.Fatalf("idle report should equal idle load: %v", r1)
	}
	if r2 := d.DrainUsageReport(); r2 != 0 {
		t.Fatalf("drained accumulator should reset, got %v", r2)
	}
}

// TestDrainUsageReportMatchesRunningMean: the λ report used to be a
// metrics.Running's Mean; the plain sum and count that replaced it must
// report the same bits, across drains and for an empty interval.
func TestDrainUsageReportMatchesRunningMean(t *testing.T) {
	d := NewDevice(DefaultDeviceConfig())
	rng := rand.New(rand.NewPCG(3, 1))
	var ref metrics.Running
	dt := 1.0 / 30
	for i := 0; i < 5000; i++ {
		now := float64(i) * dt
		switch rng.IntN(40) {
		case 0:
			d.BeginTraining(now + 3*rng.Float64())
		case 1:
			d.BeginEncoding(now + rng.Float64())
		case 2:
			if got, want := d.DrainUsageReport(), ref.Mean(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("frame %d: report %v, Running.Mean %v", i, got, want)
			}
			ref.Reset()
			if got := d.DrainUsageReport(); got != 0 {
				t.Fatalf("frame %d: empty interval reports %v, want 0", i, got)
			}
		}
		ref.Add(d.Usage(now))
		d.Tick(now, dt)
	}
}

func TestFPSTrackerSeriesAndAverage(t *testing.T) {
	f := NewFPSTracker()
	for i := 0; i < 30; i++ {
		f.Record(0.5, 30)
	}
	for i := 0; i < 30; i++ {
		f.Record(1.5, 15)
	}
	series := f.Series()
	if len(series) != 2 {
		t.Fatalf("series length: %d", len(series))
	}
	if series[0] != 30 || series[1] != 15 {
		t.Fatalf("series wrong: %v", series)
	}
	if math.Abs(f.Average()-22.5) > 1e-9 {
		t.Fatalf("average: %v", f.Average())
	}
}

func TestSamplerHonorsRate(t *testing.T) {
	s := NewSampler(2) // 2 fps from a 30 fps camera
	dt := 1.0 / 30
	sampled := 0
	const frames = 3000 // 100 seconds
	for i := 0; i < frames; i++ {
		if s.Sample(float64(i) * dt) {
			sampled++
		}
	}
	// Expect ≈200 samples over 100 s.
	if sampled < 190 || sampled > 215 {
		t.Fatalf("sampled %d frames, want ≈200", sampled)
	}
}

func TestSamplerRateChange(t *testing.T) {
	s := NewSampler(0.1)
	dt := 1.0 / 30
	count := 0
	for i := 0; i < 300; i++ { // 10 s at 0.1 fps → ~2 samples (incl. bootstrap)
		if s.Sample(float64(i) * dt) {
			count++
		}
	}
	low := count
	s.SetRate(2)
	for i := 300; i < 600; i++ { // 10 s at 2 fps → ~20 samples
		if s.Sample(float64(i) * dt) {
			count++
		}
	}
	if count-low < 15 {
		t.Fatalf("rate increase should raise sampling: %d then %d", low, count-low)
	}
	if s.Rate() != 2 {
		t.Fatal("rate not applied")
	}
	s.SetRate(-1)
	if s.Rate() != 0 {
		t.Fatal("negative rates must clamp to 0")
	}
}

func TestSamplerFirstFrameSampled(t *testing.T) {
	s := NewSampler(0.5)
	if !s.Sample(0) {
		t.Fatal("first frame should be sampled to bootstrap labeling")
	}
}

// TestSamplerCreditClamped is the regression test for unbounded credit:
// a rate at or above the camera FPS used to accrue surplus credit every
// frame, so a rate cut was followed by a long burst of stale samples. The
// clamp bounds the post-cut burst to at most two immediate samples.
func TestSamplerCreditClamped(t *testing.T) {
	s := NewSampler(90) // 3× the camera FPS
	dt := 1.0 / 30
	i := 0
	for ; i < 600; i++ { // 20 s at rate ≥ FPS: every frame sampled
		if !s.Sample(float64(i) * dt) {
			t.Fatalf("rate above FPS must sample every frame (frame %d)", i)
		}
	}
	s.SetRate(0.5)
	burst := 0
	for ; i < 630; i++ { // first second after the cut
		if s.Sample(float64(i) * dt) {
			burst++
		}
	}
	// Unclamped credit would be ≈ 20s·(90−30) = 1200: every one of these 30
	// frames sampled. Clamped: ≤2 backlog samples plus the 0.5 fps trickle.
	if burst > 3 {
		t.Fatalf("rate cut followed by a %d-sample burst; credit not clamped", burst)
	}
	// The new rate must still be honored afterwards: ~5 samples over 10 s.
	count := 0
	for ; i < 930; i++ {
		if s.Sample(float64(i) * dt) {
			count++
		}
	}
	if count < 3 || count > 7 {
		t.Fatalf("post-clamp sampling off: %d samples in 10s at 0.5 fps", count)
	}
}

// TestSamplerSkipBefore: from any credit (the cap's 2 included) and rate,
// none of the calls SkipBefore promises to skip accepts the n-th frame, and
// below the camera FPS the promise stops at most two calls short.
func TestSamplerSkipBefore(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 1))
	const dt = 1.0 / 30
	rates := []float64{0, 1e-6, 0.05, 0.5, 2, 10, 29.97, 30, 45, 120}
	if got := NewSampler(1).SkipBefore(1, dt); got != 0 {
		t.Fatalf("sampler not started: SkipBefore = %v, want 0", got)
	}
	for i := 0; i < 4000; i++ {
		s := &Sampler{started: true, rate: rates[rng.IntN(len(rates))], credit: 2 * rng.Float64(), lastT: 7}
		if rng.IntN(8) == 0 {
			s.credit = float64(rng.IntN(3))
		}
		n := 1 + rng.IntN(20)
		state := *s
		skip := s.SkipBefore(n, dt)
		const horizon = 3000
		accepted, at := 0, -1
		for call := 1; call <= horizon && at < 0; call++ {
			if s.Sample(state.lastT + float64(call)*dt) {
				if accepted++; accepted == n {
					at = call
				}
			}
		}
		if at < 0 {
			continue
		}
		if math.IsInf(skip, 1) || float64(at) <= skip {
			t.Fatalf("case %d %+v n=%d: call %d accepted the n-th frame, SkipBefore promised %v calls before it", i, state, n, at, skip)
		}
		if state.rate < 1/dt && state.credit < 1 && float64(at)-1-skip > 2 {
			t.Fatalf("case %d %+v n=%d: call %d accepted the n-th frame, SkipBefore promised only %v calls before it", i, state, n, at, skip)
		}
	}
}
