package sim

import (
	"cmp"
	"fmt"
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
// contract on random interleavings of At, Quiet, appendSorted (both its bulk
// and its sift-up branch) and AdvanceTo: events of both kinds run in
// (clamped time, posting order).
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
			switch rng.IntN(5) {
			case 0:
				at, fn := post(s.Now() + float64(rng.IntN(8))*0.5 - 1)
				s.At(at, fn)
			case 1:
				at, fn := post(s.Now() + float64(rng.IntN(8))*0.5 - 1)
				s.Quiet(at, Func(fn), 0)
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

// TestSchedulerSteadyStateZeroAlloc guards the typed heaps: once the queues
// have reached their high-water capacity, At, Quiet with a typed handler and
// AdvanceTo allocate nothing (pushing or popping through an interface would
// box every event).
func TestSchedulerSteadyStateZeroAlloc(t *testing.T) {
	s := NewScheduler()
	fn := func(float64) {}
	var h Handler = Func(fn)
	post := func(i int, at float64) {
		if i%2 == 0 {
			s.At(at, fn)
		} else {
			s.Quiet(at, h, float64(i))
		}
	}
	for i := 0; i < 256; i++ {
		post(i, float64(i%16))
	}
	s.AdvanceTo(16)
	now := s.Now()
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 256; i++ {
			post(i, now+float64(i%16))
		}
		now += 16
		s.AdvanceTo(now)
	})
	if allocs != 0 {
		t.Fatalf("At + Quiet + AdvanceTo at steady state: %v allocs per 256 events, want 0", allocs)
	}
	if s.Pending() != 0 {
		t.Fatalf("%d events left queued", s.Pending())
	}
}

// TestQuietEventsInterleaveInPostingOrder: eager and quiet events due at one
// instant run in the order they were posted, whichever kind each is, and
// quiet events carry their argument and clamp to the clock as At does.
func TestQuietEventsInterleaveInPostingOrder(t *testing.T) {
	s := NewScheduler()
	var order []string
	eager := func(name string) { s.At(1, func(float64) { order = append(order, name) }) }
	quiet := func(name string) {
		s.Quiet(1, Func(func(float64) { order = append(order, name) }), 0)
	}
	quiet("q1")
	eager("e1")
	eager("e2")
	quiet("q2")
	s.At(1, func(float64) {
		order = append(order, "e3")
		quiet("q4") // posted while running: after everything already queued
	})
	quiet("q3")
	s.AdvanceTo(1)
	if got, want := fmt.Sprint(order), "[q1 e1 e2 q2 e3 q3 q4]"; got != want {
		t.Fatalf("events ran %s, want %s", got, want)
	}

	var arg, at float64
	s.AdvanceTo(5)
	s.Quiet(2, handlerFunc(func(now, a float64) { at, arg = now, a }), 0.75)
	s.AdvanceTo(5)
	if at != 5 || arg != 0.75 {
		t.Fatalf("a quiet event posted in the past ran at %v with %v, want 5 and 0.75", at, arg)
	}
}

// handlerFunc is a Handler that reads its argument.
type handlerFunc func(now, arg float64)

func (f handlerFunc) Handle(now, arg float64) { f(now, arg) }

// TestQuietEventsWakeNobody: a quiet post calls no waker and is invisible
// to NextEagerTime, while NextTime, Pending, Executed and ExecutedQuiet
// count it.
func TestQuietEventsWakeNobody(t *testing.T) {
	s := NewScheduler()
	wakes := 0
	s.SetWaker(func() { wakes++ })
	nop := Func(func(float64) {})
	s.Quiet(2, nop, 0)
	s.Quiet(4, nop, 0)
	if wakes != 0 {
		t.Fatalf("quiet posts woke the waker %d times", wakes)
	}
	if _, ok := s.NextEagerTime(); ok {
		t.Fatal("NextEagerTime reported a quiet event")
	}
	if next, ok := s.NextTime(); !ok || next != 2 {
		t.Fatalf("NextTime = %v, %v; want the quiet event at 2", next, ok)
	}
	s.At(3, func(float64) {})
	if wakes != 1 {
		t.Fatalf("an eager post woke the waker %d times, want 1", wakes)
	}
	if next, ok := s.NextEagerTime(); !ok || next != 3 {
		t.Fatalf("NextEagerTime = %v, %v; want 3, true", next, ok)
	}
	if next, ok := s.NextTime(); !ok || next != 2 {
		t.Fatalf("NextTime = %v, %v; want 2, true", next, ok)
	}
	if s.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3 (two quiet, one eager)", s.Pending())
	}
	s.AdvanceTo(3)
	if s.Pending() != 1 || s.Executed() != 2 || s.ExecutedQuiet() != 1 {
		t.Fatalf("after AdvanceTo(3): pending %d, executed %d (%d quiet); want 1, 2 (1)", s.Pending(), s.Executed(), s.ExecutedQuiet())
	}
	if _, ok := s.NextEagerTime(); ok {
		t.Fatal("NextEagerTime reported an event after the only eager one ran")
	}
	if next, ok := s.NextTime(); !ok || next != 4 {
		t.Fatalf("NextTime = %v, %v; want 4, true", next, ok)
	}
}

// BenchmarkSchedulerAdvance times one event scheduled and one executed
// against a standing queue of 1024, as the sim.scheduler.at_advance_ns row
// does: eager alone, the path the shared timeline takes, and with half the
// posts quiet, a device's.
func BenchmarkSchedulerAdvance(b *testing.B) {
	for _, quiet := range []bool{false, true} {
		b.Run(fmt.Sprintf("quiet=%t", quiet), func(b *testing.B) {
			s := NewScheduler()
			rng := rand.New(rand.NewPCG(13, 13))
			delays := make([]float64, 4096)
			for i := range delays {
				delays[i] = 1 + rng.Float64()
			}
			fn := func(float64) {}
			post := func(i int, at float64) {
				if quiet && i%2 == 1 {
					s.Quiet(at, Func(fn), 0)
				} else {
					s.At(at, fn)
				}
			}
			for i := 0; i < 1024; i++ {
				post(i, delays[i])
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t, _ := s.NextTime()
				post(i, t+delays[i%len(delays)])
				s.AdvanceTo(t)
			}
		})
	}
}
