package core

import (
	"context"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"shoggoth/internal/detect"
	"shoggoth/internal/video"
)

var (
	pretrainOnce sync.Once
	pretrained   *detect.Student
)

// testConfig returns a short-run config with a cached pretrained student.
func testConfig(kind StrategyKind, duration float64) Config {
	p := video.DETRACProfile()
	pretrainOnce.Do(func() {
		pretrained = detect.NewPretrainedStudent(p, rand.New(rand.NewPCG(p.Seed, 3)))
	})
	cfg := NewConfig(kind, p)
	cfg.DurationSec = duration
	cfg.Pretrained = pretrained
	return cfg
}

// runSystem builds a System for cfg and plays it to the end.
func runSystem(t *testing.T, cfg Config) *Results {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigValidation(t *testing.T) {
	cfg := testConfig(Shoggoth, 10)
	cfg.Profile = nil
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("nil profile must fail validation")
	}
	cfg = testConfig(Shoggoth, 0)
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("zero duration must fail validation")
	}
	cfg = testConfig(Shoggoth, 10)
	cfg.SampleRate = -1
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("negative rate must fail validation")
	}
	cfg = testConfig(Prompt, 10)
	cfg.BatchFrames = 0
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("zero batch frames must fail for training strategies")
	}
}

func TestEdgeOnlyRun(t *testing.T) {
	res := runSystem(t, testConfig(EdgeOnly, 60))
	if res.UpBytes != 0 || res.DownBytes != 0 {
		t.Fatalf("Edge-Only must use no network: %d/%d", res.UpBytes, res.DownBytes)
	}
	if math.Abs(res.AvgFPS-30) > 0.5 {
		t.Fatalf("Edge-Only FPS should be 30, got %v", res.AvgFPS)
	}
	if res.Sessions != 0 {
		t.Fatal("Edge-Only must not train")
	}
	if res.FramesProcessed < res.FramesTotal-2 {
		t.Fatalf("Edge-Only should process every frame: %d of %d", res.FramesProcessed, res.FramesTotal)
	}
	if res.MAP50 <= 0 || res.MAP50 >= 1 {
		t.Fatalf("mAP out of range: %v", res.MAP50)
	}
}

func TestCloudOnlyRun(t *testing.T) {
	res := runSystem(t, testConfig(CloudOnly, 60))
	if res.UpBytes == 0 || res.DownBytes == 0 {
		t.Fatal("Cloud-Only must stream both ways")
	}
	if res.DownKbps <= res.UpKbps {
		t.Fatalf("annotated downlink should exceed uplink: %v vs %v", res.DownKbps, res.UpKbps)
	}
	if res.AvgFPS > 10 {
		t.Fatalf("Cloud-Only FPS should be round-trip bound, got %v", res.AvgFPS)
	}
	if res.FramesProcessed >= res.FramesTotal/2 {
		t.Fatalf("Cloud-Only cannot process most frames: %d of %d", res.FramesProcessed, res.FramesTotal)
	}
	if res.MAP50 < 0.5 {
		t.Fatalf("Cloud-Only should be near the teacher ceiling, got %v", res.MAP50)
	}
}

func TestShoggothRunTrainsAndControls(t *testing.T) {
	res := runSystem(t, testConfig(Shoggoth, 600))
	if res.Sessions == 0 {
		t.Fatal("Shoggoth should run training sessions in 300s")
	}
	if len(res.RateSeries) == 0 {
		t.Fatal("adaptive controller should issue rate commands")
	}
	for _, rp := range res.RateSeries {
		if rp.Rate < 0.1-1e-9 || rp.Rate > 2.0+1e-9 {
			t.Fatalf("rate out of paper bounds: %v", rp.Rate)
		}
	}
	if res.UpBytes == 0 || res.DownBytes == 0 {
		t.Fatal("Shoggoth uses the network")
	}
	if res.SampledFrames == 0 {
		t.Fatal("Shoggoth samples frames")
	}
	// Downlink is labels only: orders of magnitude below Cloud-Only.
	if res.DownKbps > 100 {
		t.Fatalf("Shoggoth downlink should be tiny, got %v", res.DownKbps)
	}
}

func TestPromptFixedRate(t *testing.T) {
	res := runSystem(t, testConfig(Prompt, 120))
	if len(res.RateSeries) != 0 {
		t.Fatal("Prompt must not receive rate commands")
	}
	// 2 fps over 120 s ≈ 240 samples.
	if res.SampledFrames < 220 || res.SampledFrames > 250 {
		t.Fatalf("Prompt should sample at 2 fps: got %d in 120s", res.SampledFrames)
	}
}

func TestAMSStreamsModels(t *testing.T) {
	res := runSystem(t, testConfig(AMS, 600))
	if res.Sessions == 0 {
		t.Fatal("AMS should train in the cloud")
	}
	// Downlink carries model updates: far larger than a label-only downlink.
	labelOnly := runSystem(t, testConfig(Shoggoth, 600))
	if res.DownBytes < 5*labelOnly.DownBytes {
		t.Fatalf("AMS downlink (%d) should dwarf label downlink (%d)", res.DownBytes, labelOnly.DownBytes)
	}
	// AMS never trains on the edge: FPS stays near the maximum.
	if res.AvgFPS < 28 {
		t.Fatalf("AMS edge FPS should stay high, got %v", res.AvgFPS)
	}
}

func TestDeterminism(t *testing.T) {
	a := runSystem(t, testConfig(Shoggoth, 150))
	b := runSystem(t, testConfig(Shoggoth, 150))
	if a.MAP50 != b.MAP50 || a.UpBytes != b.UpBytes || a.Sessions != b.Sessions {
		t.Fatalf("identical configs must produce identical results: %+v vs %+v", a, b)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	cfg := testConfig(Shoggoth, 150)
	a := runSystem(t, cfg)
	cfg.Seed = 99
	b := runSystem(t, cfg)
	if a.MAP50 == b.MAP50 && a.UpBytes == b.UpBytes {
		t.Fatal("different seeds should change the run")
	}
}

func TestFPSDipsDuringTraining(t *testing.T) {
	res := runSystem(t, testConfig(Prompt, 240))
	if res.Sessions == 0 {
		t.Skip("no sessions in this short run")
	}
	low := false
	for _, fps := range res.FPSSeries {
		if fps < 16 {
			low = true
			break
		}
	}
	if !low {
		t.Fatal("FPS series should show training dips (~15 fps)")
	}
}

func TestWindowedMAPsPopulated(t *testing.T) {
	res := runSystem(t, testConfig(EdgeOnly, 60))
	if len(res.WindowMAPs) < 4 {
		t.Fatalf("expected ≥4 windows for 60s at 10s windows, got %d", len(res.WindowMAPs))
	}
}

func TestMAPGainSeriesAlignment(t *testing.T) {
	a := runSystem(t, testConfig(EdgeOnly, 60))
	b := runSystem(t, testConfig(Shoggoth, 60))
	gains := MAPGainSeries(b, a)
	if len(gains) == 0 {
		t.Fatal("gain series empty")
	}
	if len(gains) > len(a.WindowMAPs) {
		t.Fatal("gain series longer than base windows")
	}
	self := MAPGainSeries(a, a)
	for _, g := range self {
		if g != 0 {
			t.Fatal("self-gain must be zero")
		}
	}
}

func TestStrategyKindStrings(t *testing.T) {
	want := map[StrategyKind]string{
		EdgeOnly: "Edge-Only", CloudOnly: "Cloud-Only", Prompt: "Prompt",
		AMS: "AMS", Shoggoth: "Shoggoth",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d: got %q want %q", k, k.String(), s)
		}
	}
	if StrategyKind(99).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestTableIIIFixedRateDisablesController(t *testing.T) {
	cfg := testConfig(Shoggoth, 120)
	cfg.SampleRate = 0.4
	res := runSystem(t, cfg)
	if len(res.RateSeries) != 0 {
		t.Fatal("fixed-rate run must not receive controller commands")
	}
	// 0.4 fps × 120 s ≈ 48 samples.
	if res.SampledFrames < 40 || res.SampledFrames > 60 {
		t.Fatalf("fixed 0.4 fps should sample ≈48, got %d", res.SampledFrames)
	}
}
