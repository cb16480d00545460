package netsim

import (
	"math"
	"testing"
	"time"

	"shoggoth/internal/sim"
)

// TestSharedMediumSoloMatchesTrace: a lone transfer sees the tower's full
// rate, so the shared medium must agree with the point-to-point
// TransferSeconds pricing — the fleet engine's cell model degrades cleanly
// to the session model when nobody else talks.
func TestSharedMediumSoloMatchesTrace(t *testing.T) {
	tr := Link{BandwidthBps: 8e6, LatencySec: 0.05}
	sched := sim.NewScheduler()
	m := NewSharedMedium(tr, sched)

	const bytes = 250_000
	start := 3.0
	var got float64
	sched.At(start, func(now float64) { m.Join(bytes, now, func(d float64) { got = d }) })
	sched.AdvanceTo(100)

	want := start + TransferSeconds(tr, bytes, start)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("solo delivery at %.9f, want %.9f", got, want)
	}
	if m.Completed() != 1 || m.Active() != 0 {
		t.Fatalf("completed=%d active=%d after drain", m.Completed(), m.Active())
	}
}

// TestSharedMediumEvenSplit: two simultaneous equal transfers each get half
// the aggregate rate, so both take exactly twice the solo transfer time.
func TestSharedMediumEvenSplit(t *testing.T) {
	tr := Link{BandwidthBps: 10e6, LatencySec: 0}
	sched := sim.NewScheduler()
	m := NewSharedMedium(tr, sched)

	const bytes = 125_000 // 1e6 bits → 0.1 s solo, 0.2 s shared
	var done []float64
	sched.At(0, func(now float64) {
		m.Join(bytes, now, func(d float64) { done = append(done, d) })
		m.Join(bytes, now, func(d float64) { done = append(done, d) })
	})
	sched.AdvanceTo(10)

	if len(done) != 2 {
		t.Fatalf("got %d deliveries, want 2", len(done))
	}
	for _, d := range done {
		if math.Abs(d-0.2) > 1e-9 {
			t.Fatalf("shared delivery at %.9f, want 0.200000000", d)
		}
	}
	if m.MaxConcurrent() != 2 {
		t.Fatalf("MaxConcurrent = %d, want 2", m.MaxConcurrent())
	}
}

// TestSharedMediumRepricingOnJoin: a transfer that starts alone and is
// joined halfway through finishes later than its solo estimate — the join
// re-prices the in-flight completion — and the latecomer finishes last.
func TestSharedMediumRepricingOnJoin(t *testing.T) {
	tr := Link{BandwidthBps: 10e6, LatencySec: 0}
	sched := sim.NewScheduler()
	m := NewSharedMedium(tr, sched)

	const bytes = 125_000 // 0.1 s solo
	var first, second float64
	sched.At(0, func(now float64) { m.Join(bytes, now, func(d float64) { first = d }) })
	// Joins at 0.05: the first transfer has 0.5e6 bits left, now draining at
	// 5 Mbps → done at 0.15. The second then runs solo: 1e6 bits minus the
	// 0.5e6 drained while sharing, at 10 Mbps → done at 0.2.
	sched.At(0.05, func(now float64) { m.Join(bytes, now, func(d float64) { second = d }) })
	sched.AdvanceTo(10)

	if math.Abs(first-0.15) > 1e-9 {
		t.Fatalf("first delivery at %.9f, want 0.150000000 (re-priced by the join)", first)
	}
	if math.Abs(second-0.2) > 1e-9 {
		t.Fatalf("second delivery at %.9f, want 0.200000000 (sped up by the leave)", second)
	}
}

// TestSharedMediumTraceBoundaries: the medium integrates across rate
// changes of a non-constant trace. A 50%-depth square-wave style step trace
// is emulated with StepTrace windows.
func TestSharedMediumTraceBoundaries(t *testing.T) {
	base := Link{BandwidthBps: 10e6, LatencySec: 0}
	trace, err := NewStepTrace(base, []Window{{StartSec: 1, EndSec: 2, RateBps: 5e6}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	m := NewSharedMedium(trace, sched)

	// 1.25e6 bits starting at 0.95: 0.05 s at 10 Mbps drains 0.5e6, the
	// remaining 0.75e6 at 5 Mbps takes 0.15 s → delivery at 1.15.
	var got float64
	sched.At(0.95, func(now float64) { m.Join(156_250, now, func(d float64) { got = d }) })
	sched.AdvanceTo(10)

	want := 0.95 + TransferSeconds(trace, 156_250, 0.95)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("delivery across rate step at %.9f, want %.9f", got, want)
	}
}

// TestSharedMediumDeterministic: identical join schedules produce
// bit-identical delivery times across runs, including simultaneous
// completions delivered in join order.
func TestSharedMediumDeterministic(t *testing.T) {
	run := func() []float64 {
		trace, err := NewLTETrace(Link{BandwidthBps: 20e6, LatencySec: 0.03}, 5, 0.4, 1.0, 99)
		if err != nil {
			t.Fatal(err)
		}
		sched := sim.NewScheduler()
		m := NewSharedMedium(trace, sched)
		var done []float64
		for i := 0; i < 8; i++ {
			bytes := 40_000 + 9_000*i
			at := 0.5 * float64(i%5)
			sched.At(at, func(now float64) { m.Join(bytes, now, func(d float64) { done = append(done, d) }) })
		}
		sched.AdvanceTo(600)
		if m.Completed() != 8 {
			t.Fatalf("completed %d of 8 transfers", m.Completed())
		}
		return done
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d differs between runs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestSharedMediumStalledJoinCompletes: far from t=0 one ulp of virtual
// time outlasts a few bits at tower rate, so a one-byte upload's drain time
// rounds away: now + remaining/share == now. Such a transfer completes at
// now. A wake re-armed for it would fire at now forever, so the scheduler
// runs under a deadline.
func TestSharedMediumStalledJoinCompletes(t *testing.T) {
	const start = 1e12 // one ulp is about 1.2e-4 s, 12,000 bits at 1e8 bps
	sched := sim.NewScheduler()
	m := NewSharedMedium(Link{BandwidthBps: 1e8}, sched)
	var done []float64
	sched.At(start, func(now float64) {
		m.Join(1, now, func(d float64) { done = append(done, d) })
	})
	finished := make(chan struct{})
	go func() {
		sched.AdvanceTo(start + 100)
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("the scheduler is still running after 10 s: a wake re-arms at one instant")
	}
	if len(done) != 1 || done[0] != start || m.Active() != 0 {
		t.Fatalf("deliveries %v, %d still active; want one at %v", done, m.Active(), start)
	}
}

// TestSharedMediumStalledSegmentCompletes: the same stall met inside one
// integration. Two transfers share 2^27 bps at t = 2^40 (one ulp is 2^-12
// s); the first drains exactly at +0.25 s and leaves the second 1,000 bits,
// which at the full rate take 7.5e-6 s, under half an ulp. The second must
// complete at +0.25 s, in the same call, not stay in flight once the
// segment loop has run out of iterations and jumped to the target.
func TestSharedMediumStalledSegmentCompletes(t *testing.T) {
	start := math.Ldexp(1, 40)
	sched := sim.NewScheduler()
	m := NewSharedMedium(Link{BandwidthBps: math.Ldexp(1, 27)}, sched)
	var done []float64
	deliver := func(d float64) { done = append(done, d) }
	m.now = start
	m.active = []*sharedTransfer{
		{remaining: math.Ldexp(1, 24), deliver: deliver},
		{remaining: math.Ldexp(1, 24) + 1000, deliver: deliver},
	}
	m.advance(start + 10)
	sched.AdvanceTo(start + 20)
	if want := start + 0.25; len(done) != 2 || done[0] != want || done[1] != want || m.Active() != 0 {
		t.Fatalf("deliveries %v, %d still active; want two at %v", done, m.Active(), want)
	}
}
