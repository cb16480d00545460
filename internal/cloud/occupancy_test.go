package cloud

import (
	"math"
	"math/rand/v2"
	"testing"

	"shoggoth/internal/sim"
)

// occRef is the occupancy model the service had before its completion times
// became a heap, kept as the reference: every assigned batch's completion
// time in a flat list, counted by a linear scan. It follows the service's
// rule that occupancy is evaluated at the high-water now.
type occRef struct {
	cap     int
	hw      float64
	done    []float64
	pending int
}

func (r *occRef) occupancy(now float64) int {
	r.hw = math.Max(r.hw, now)
	live := 0
	for _, d := range r.done {
		if d > r.hw {
			live++
		}
	}
	return live + r.pending
}

func (r *occRef) full(now float64) bool {
	occ := r.occupancy(now)
	return r.cap > 0 && occ >= r.cap
}

// nextDone is the earliest completion after the high-water now (+Inf if
// nothing is in service).
func (r *occRef) nextDone(now float64) float64 {
	r.hw = math.Max(r.hw, now)
	next := math.Inf(1)
	for _, d := range r.done {
		if d > r.hw && d < next {
			next = d
		}
	}
	return next
}

// TestOccupancyMatchesLinearScanImmediate interleaves the real-time calls —
// Admit, the synchronous Enqueue, AtCapacity, RetryAfterSec, loadSnapshot —
// on an arrival-order service and checks every answer against the reference,
// with a clock that never steps back and with one that does (the live path
// reads its clock before it takes the service lock).
func TestOccupancyMatchesLinearScanImmediate(t *testing.T) {
	frames := serviceFrames(t, 3)
	for _, backwards := range []bool{false, true} {
		rng := rand.New(rand.NewPCG(11, 13))
		for trial := 0; trial < 60; trial++ {
			cfg := ServiceConfig{QueueCap: []int{0, 1, 3, 8}[trial%4], Workers: 1 + trial%3}
			svc := NewService(cfg)
			devs := []*ServiceDevice{newAnalyticDevice(t, svc, "a", 1), newAnalyticDevice(t, svc, "b", 2)}
			ref := &occRef{cap: cfg.QueueCap}
			clock, stepsBack := 0.0, 0
			for op := 0; op < 400; op++ {
				clock += rng.Float64() * 0.05
				now := clock
				if backwards && rng.IntN(3) == 0 {
					now -= rng.Float64() * 0.3 // an earlier reading that reaches the lock later
					stepsBack++
				}
				d := devs[rng.IntN(len(devs))]
				n := 1 + rng.IntN(len(frames))
				switch rng.IntN(5) {
				case 0:
					want := !ref.full(now)
					adm, ok := d.Admit(n, now)
					if ok != want {
						t.Fatalf("backwards=%v trial %d op %d: Admit at %g admitted=%v, reference %v", backwards, trial, op, now, ok, want)
					}
					if ok {
						if adm.Start < now {
							t.Fatalf("backwards=%v trial %d op %d: batch admitted at %g starts at %g: Start must follow the caller's own now", backwards, trial, op, now, adm.Start)
						}
						ref.done = append(ref.done, adm.Done)
					}
				case 1:
					want := !ref.full(now)
					ok := d.Enqueue(frames[:n], now, func(res BatchResult) { ref.done = append(ref.done, res.Done) })
					if ok != want {
						t.Fatalf("backwards=%v trial %d op %d: Enqueue at %g admitted=%v, reference %v", backwards, trial, op, now, ok, want)
					}
				case 2:
					if got, want := svc.AtCapacity(now), ref.full(now); got != want {
						t.Fatalf("backwards=%v trial %d op %d: AtCapacity(%g) = %v, reference %v", backwards, trial, op, now, got, want)
					}
				case 3:
					want := 0.0
					if next := ref.nextDone(now); !math.IsInf(next, 1) {
						want = next - now
					}
					if got := svc.RetryAfterSec(now); got != want {
						t.Fatalf("backwards=%v trial %d op %d: RetryAfterSec(%g) = %v, reference %v", backwards, trial, op, now, got, want)
					}
				case 4:
					if got, _ := svc.loadSnapshot(now); got != ref.occupancy(now) {
						t.Fatalf("backwards=%v trial %d op %d: loadSnapshot(%g) occupancy = %d, reference %d", backwards, trial, op, now, got, ref.occupancy(now))
					}
				}
			}
			if backwards && stepsBack == 0 {
				t.Fatal("the clock never stepped back: the trial proved nothing")
			}
			// Completed batches must leave the heap, bounded queue or not.
			svc.loadSnapshot(clock)
			if got, want := len(svc.outstanding), ref.occupancy(clock); got != want {
				t.Fatalf("backwards=%v trial %d: heap holds %d entries for %d live batches", backwards, trial, got, want)
			}
		}
	}
}

// TestOccupancyMatchesLinearScanDeferred does the same on the deferred path:
// wfq with and without coalescing, batches waiting unassigned, dispatch
// events run by the bound scheduler. Virtual time never steps back.
func TestOccupancyMatchesLinearScanDeferred(t *testing.T) {
	frames := serviceFrames(t, 3)
	rng := rand.New(rand.NewPCG(17, 19))
	for trial := 0; trial < 60; trial++ {
		cfg := ServiceConfig{
			Policy:   PolicyWFQ,
			QueueCap: []int{0, 2, 5, 16}[trial%4],
			Workers:  1 + trial%3,
			Coalesce: []int{0, 4}[trial/4%2],
		}
		svc := NewService(cfg)
		sched := sim.NewScheduler()
		svc.Bind(sched)
		devs := make([]*ServiceDevice, 5)
		for i := range devs {
			devs[i] = newAnalyticDevice(t, svc, string(rune('a'+i)), uint64(i+1))
		}
		ref := &occRef{cap: cfg.QueueCap}
		served := func(res BatchResult) {
			ref.pending--
			ref.done = append(ref.done, res.Done)
		}
		waited := false
		for op := 0; op < 400; op++ {
			now := sched.Now()
			switch rng.IntN(6) {
			case 0, 1:
				want := !ref.full(now)
				ok := devs[rng.IntN(len(devs))].Enqueue(frames[:1+rng.IntN(len(frames))], now, served)
				if ok != want {
					t.Fatalf("trial %d op %d: Enqueue at %g admitted=%v, reference %v", trial, op, now, ok, want)
				}
				if ok {
					ref.pending++
				}
			case 2:
				sched.AdvanceTo(now + rng.Float64()*0.08) // runs any dispatch event due
			case 3:
				if got, want := svc.AtCapacity(now), ref.full(now); got != want {
					t.Fatalf("trial %d op %d: AtCapacity(%g) = %v, reference %v", trial, op, now, got, want)
				}
			case 4:
				got := svc.RetryAfterSec(now)
				next := ref.nextDone(now)
				switch {
				case ref.pending == 0 && math.IsInf(next, 1):
					if got != 0 {
						t.Fatalf("trial %d op %d: RetryAfterSec(%g) = %v on an empty service", trial, op, now, got)
					}
				case ref.pending == 0:
					if got != next-now {
						t.Fatalf("trial %d op %d: RetryAfterSec(%g) = %v, reference %v", trial, op, now, got, next-now)
					}
				default:
					// Waiting batches add the pool-drain estimate, which can
					// only bring the answer forward.
					if got <= 0 || got > next-now {
						t.Fatalf("trial %d op %d: RetryAfterSec(%g) = %v with %d waiting, next completion in %v", trial, op, now, got, ref.pending, next-now)
					}
				}
			case 5:
				if got, _ := svc.loadSnapshot(now); got != ref.occupancy(now) {
					t.Fatalf("trial %d op %d: loadSnapshot(%g) occupancy = %d, reference %d", trial, op, now, got, ref.occupancy(now))
				}
			}
			waited = waited || ref.pending > 0
		}
		if !waited {
			t.Fatalf("trial %d: no batch ever waited unassigned", trial)
		}
	}
}

// TestDeferredDispatchAllocsBounded guards the dispatch scratch: at steady
// state a wfq + Coalesce 4 round allocates two objects per batch — the queue
// entry made at Enqueue and the φ slice that escapes to the batch callback —
// and nothing per selection, group or dispatch event.
func TestDeferredDispatchAllocsBounded(t *testing.T) {
	svc := NewService(ServiceConfig{Policy: PolicyWFQ, Workers: 2, Coalesce: 4, QueueCap: 64})
	sched := sim.NewScheduler()
	svc.Bind(sched)
	devs := make([]*ServiceDevice, 8)
	for i := range devs {
		devs[i] = newAnalyticDevice(t, svc, string(rune('a'+i)), uint64(i+1))
	}
	frames := serviceFrames(t, 3)
	delivered := 0
	cb := func(BatchResult) { delivered++ }
	round := func() {
		now := sched.Now()
		for _, d := range devs {
			if !d.Enqueue(frames, now, cb) {
				t.Fatal("batch dropped")
			}
		}
		for sched.Pending() > 0 {
			next, _ := sched.NextTime()
			sched.AdvanceTo(next)
		}
	}
	for i := 0; i < 10; i++ {
		round() // scratch, queue and scheduler reach their high-water sizes
	}
	delivered = 0
	allocs := testing.AllocsPerRun(100, round)
	if want := float64(2 * len(devs)); allocs > want {
		t.Fatalf("%v allocs per round of %d batches, want at most %v", allocs, len(devs), want)
	}
	if delivered != 101*len(devs) { // AllocsPerRun warms up with one extra run
		t.Fatalf("%d batches delivered, want %d", delivered, 101*len(devs))
	}
	if fwd, rode := svc.coalesceCounts(); fwd == 0 || rode <= fwd {
		t.Fatalf("coalescing never fused a group (%d forwards, %d batches)", fwd, rode)
	}
}
