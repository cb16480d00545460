package sim

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(3, func(float64) { order = append(order, 3) })
	s.At(1, func(float64) { order = append(order, 1) })
	s.At(2, func(float64) { order = append(order, 2) })
	s.AdvanceTo(5)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order wrong: %v", order)
	}
	if s.Now() != 5 {
		t.Fatalf("clock should advance to 5, got %v", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := NewScheduler()
	var order []string
	s.At(1, func(float64) { order = append(order, "a") })
	s.At(1, func(float64) { order = append(order, "b") })
	s.At(1, func(float64) { order = append(order, "c") })
	s.AdvanceTo(1)
	if got := order[0] + order[1] + order[2]; got != "abc" {
		t.Fatalf("simultaneous events must run FIFO: %v", got)
	}
}

func TestEventsSchedulingEvents(t *testing.T) {
	s := NewScheduler()
	var fired []float64
	s.At(1, func(now float64) {
		fired = append(fired, now)
		s.After(1, func(now float64) { fired = append(fired, now) })
	})
	s.AdvanceTo(3)
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Fatalf("chained events wrong: %v", fired)
	}
}

func TestFutureEventsNotRun(t *testing.T) {
	s := NewScheduler()
	ran := false
	s.At(10, func(float64) { ran = true })
	s.AdvanceTo(5)
	if ran {
		t.Fatal("future event must not run")
	}
	if s.Pending() != 1 {
		t.Fatalf("pending: %d", s.Pending())
	}
	s.AdvanceTo(10)
	if !ran {
		t.Fatal("due event must run")
	}
}

func TestPastEventClampsToNow(t *testing.T) {
	s := NewScheduler()
	s.AdvanceTo(5)
	var at float64 = -1
	s.At(1, func(now float64) { at = now })
	s.AdvanceTo(5) // no time advance needed; event due at now
	if at != 5 {
		t.Fatalf("past event should fire at current time, got %v", at)
	}
}

func TestAfterNegativeDelay(t *testing.T) {
	s := NewScheduler()
	s.AdvanceTo(2)
	fired := false
	s.After(-3, func(float64) { fired = true })
	s.AdvanceTo(2)
	if !fired {
		t.Fatal("negative delay should fire immediately")
	}
}

func TestEventTimeVisibleToCallback(t *testing.T) {
	s := NewScheduler()
	var seen float64
	s.At(2.5, func(now float64) { seen = now })
	s.AdvanceTo(10)
	if seen != 2.5 {
		t.Fatalf("callback should observe its own time, got %v", seen)
	}
}

// TestSchedulerPopOrderIsTimeThenSeq checks the typed heap against its
// contract on random interleavings of At, appendSorted (both its bulk and its
// sift-up branch) and AdvanceTo: events run in (clamped time, posting order).
func TestSchedulerPopOrderIsTimeThenSeq(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	type stamp struct {
		at   float64
		post int
	}
	for trial := 0; trial < 200; trial++ {
		s := NewScheduler()
		var ran []stamp
		posted := 0
		post := func(at float64) (float64, func(float64)) {
			if at < s.Now() {
				at = s.Now()
			}
			id := posted
			posted++
			return at, func(now float64) { ran = append(ran, stamp{now, id}) }
		}
		for op := 0; op < 60; op++ {
			switch rng.IntN(4) {
			case 0, 1:
				at, fn := post(s.Now() + float64(rng.IntN(8))*0.5 - 1)
				s.At(at, fn)
			case 2:
				run := make([]mergeEvent, rng.IntN(40))
				for i := range run {
					run[i].at = s.Now() + float64(rng.IntN(8))*0.5
				}
				slices.SortFunc(run, func(a, b mergeEvent) int { return cmp.Compare(a.at, b.at) })
				for i := range run {
					run[i].at, run[i].fn = post(run[i].at)
				}
				s.appendSorted(run)
			case 3:
				s.AdvanceTo(s.Now() + float64(rng.IntN(4)))
			}
		}
		s.AdvanceTo(1e9)
		if len(ran) != posted {
			t.Fatalf("trial %d: %d of %d events ran", trial, len(ran), posted)
		}
		if !slices.IsSortedFunc(ran, func(a, b stamp) int {
			return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.post, b.post))
		}) {
			t.Fatalf("trial %d: events ran out of (time, posting) order: %v", trial, ran)
		}
	}
}

// TestSchedulerSteadyStateZeroAlloc guards the typed heap: once the queue has
// reached its high-water capacity, At and AdvanceTo allocate nothing (pushing
// or popping through an interface would box every event).
func TestSchedulerSteadyStateZeroAlloc(t *testing.T) {
	s := NewScheduler()
	fn := func(float64) {}
	for i := 0; i < 256; i++ {
		s.At(float64(i%16), fn)
	}
	s.AdvanceTo(16)
	now := s.Now()
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 256; i++ {
			s.At(now+float64(i%16), fn)
		}
		now += 16
		s.AdvanceTo(now)
	})
	if allocs != 0 {
		t.Fatalf("At + AdvanceTo at steady state: %v allocs per 256 events, want 0", allocs)
	}
	if s.Pending() != 0 {
		t.Fatalf("%d events left queued", s.Pending())
	}
}
