//go:build !shoggothdebug && !race

// The bound holds for release builds only: the shoggothdebug build's
// assertions allocate (the edge's FPS oracle copies the tracker's runs), and
// under the race detector sync.Pool drops a random share of what is put in
// it, so uploads are made again.

package core

import (
	"runtime"
	"testing"

	"shoggoth/internal/video"
)

// TestUploadCycleAllocsBounded: in steady state an events-fidelity upload —
// flush, uplink, cloud arrival, enqueue, analytic labeling and the batch
// hooks — allocates only what is left by design: the two closures each
// training session schedules and the closure of a rate command that raises
// the rate; nothing a frame, and nothing for the label deposit or any other
// rate command, which carry their frame count and rate. The uploads, the
// blocks their packed frames are unpacked into, their callbacks and the φ
// slice are all reused. The bound leaves
// room for the few times the run's kept series (rate commands, sessions,
// label latencies) double.
func TestUploadCycleAllocsBounded(t *testing.T) {
	cfg := NewConfig(Shoggoth, video.DETRACProfile())
	cfg.DurationSec = 4 * 3600
	cfg.Fidelity = FidelityEvents
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runEvents(s, cfg.DurationSec/2) // warm-up: pools, scratch and queues reach their sizes
	batches0, sessions0, sampled0 := s.cloudDev.Stats().Batches, s.results.Sessions, s.results.SampledFrames
	rates0 := len(s.results.RateSeries)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	runEvents(s, cfg.DurationSec)
	runtime.ReadMemStats(&m1)
	batches := s.cloudDev.Stats().Batches - batches0
	sessions := s.results.Sessions - sessions0
	sampled := s.results.SampledFrames - sampled0
	if batches < 200 || sampled < 2*batches {
		t.Fatalf("%d batches of %d frames in the measured half: too few to bound per-batch and per-frame allocations", batches, sampled)
	}
	allocs := m1.Mallocs - m0.Mallocs
	// A command posted eager raised the rate above the one before it.
	series, rises := s.results.RateSeries, 0
	for i := max(rates0, 1); i < len(series); i++ {
		if series[i].Rate > series[i-1].Rate {
			rises++
		}
	}
	const growth = 16
	if bound := uint64(2*sessions + rises + growth); allocs > bound {
		t.Fatalf("%d allocations for %d uploads (%d frames, %d sessions, %d rate rises): %.2f a batch, want at most %d in all",
			allocs, batches, sampled, sessions, rises, float64(allocs)/float64(batches), bound)
	}
	t.Logf("%d allocations for %d uploads, %d frames, %d sessions and %d of %d rate commands rising",
		allocs, batches, sampled, sessions, rises, len(series)-rates0)
}
