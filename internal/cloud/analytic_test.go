package cloud

import (
	"math"
	"testing"

	"shoggoth/internal/video"
)

// newAnalyticDevice registers an analytic device on tier and returns its
// registration on the tier's first replica.
func newAnalyticDevice(t testing.TB, tier *Tier, id string, seed uint64) *serviceDevice {
	t.Helper()
	return onReplica(newTierDevice(t, tier, id, seed, DeviceOptions{Analytic: true}))
}

// TestAnalyticLabelingContract: an analytic device prices labeling
// without running the teacher — no label sets come back, φ comes from the
// drift model (first frame 0, everything in [0, 1]) and the reported mean
// is the mean of the per-frame values.
func TestAnalyticLabelingContract(t *testing.T) {
	d := newTierDevice(t, oneReplica(ServiceConfig{}), "a", 1, DeviceOptions{Analytic: true})
	frames := serviceFrames(t, 6)

	res := label(d, frames, 0)
	phis, mean := res.Phis, res.PhiMean
	if res.Labels != nil {
		t.Fatalf("analytic device returned %d label sets, want none", len(res.Labels))
	}
	if len(phis) != len(frames) {
		t.Fatalf("got %d φ values for %d frames", len(phis), len(frames))
	}
	if phis[0] != 0 {
		t.Fatalf("first-ever frame φ = %v, want 0", phis[0])
	}
	var sum float64
	for _, v := range phis {
		if v < 0 || v > 1 {
			t.Fatalf("φ out of [0,1]: %v", v)
		}
		sum += v
	}
	if want := sum / float64(len(phis)); math.Abs(mean-want) > 1e-15 {
		t.Fatalf("φ mean %v, want %v", mean, want)
	}
}

// TestAnalyticPhiDeterministic: two registrations from the same seed
// produce identical φ streams across multiple batches.
func TestAnalyticPhiDeterministic(t *testing.T) {
	frames := serviceFrames(t, 9)
	run := func() []float64 {
		d := newTierDevice(t, oneReplica(ServiceConfig{}), "a", 7, DeviceOptions{Analytic: true})
		var out []float64
		for i, batch := range [][]*video.Frame{frames[:3], frames[3:5], frames[5:]} {
			out = append(out, label(d, batch, float64(i)).Phis...) // copied: the φs are borrowed
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("φ[%d] diverged across identical runs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestAnalyticPricingMatchesExecuted: analytic mode changes what labeling
// computes, never what a batch costs — service timing (start, done, queue
// delay) is identical to an executed device over the same arrivals, so
// events-fidelity queueing dynamics stay honest.
func TestAnalyticPricingMatchesExecuted(t *testing.T) {
	frames := serviceFrames(t, 5)

	exec := oneReplica(ServiceConfig{})
	de := newTierDevice(t, exec, "d", 1, DeviceOptions{})
	an := oneReplica(ServiceConfig{})
	da := newTierDevice(t, an, "d", 1, DeviceOptions{Analytic: true})

	for _, arrival := range []float64{0, 0.2, 7.5} {
		re := label(de, frames, arrival)
		ra := label(da, frames, arrival)
		if re.Start != ra.Start || re.Done != ra.Done || re.QueueDelaySec != ra.QueueDelaySec {
			t.Fatalf("arrival %v: analytic pricing diverged: executed (%v,%v,%v) vs analytic (%v,%v,%v)",
				arrival, re.Start, re.Done, re.QueueDelaySec, ra.Start, ra.Done, ra.QueueDelaySec)
		}
		if ra.Labels != nil {
			t.Fatal("analytic admission carried label sets")
		}
		if re.Labels == nil {
			t.Fatal("executed admission lost its label sets")
		}
	}
	if exec.Stats().BusySeconds != an.Stats().BusySeconds {
		t.Fatalf("teacher busy time diverged: executed %v vs analytic %v",
			exec.Stats().BusySeconds, an.Stats().BusySeconds)
	}
}
