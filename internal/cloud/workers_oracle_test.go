package cloud

import (
	"math"
	"math/rand/v2"
	"testing"

	"shoggoth/internal/sim"
)

// linearFreeWorker is the scan the free-worker heap replaced, kept as its
// oracle: the worker with the smallest busyUntil horizon, ties broken by
// the lowest index.
func linearFreeWorker(workers []float64) int {
	best := 0
	for i := 1; i < len(workers); i++ {
		if workers[i] < workers[best] {
			best = i
		}
	}
	return best
}

// checkFreeWorkers fails unless the service's free heap holds every worker
// once, orders every parent before its children on (horizon, index), and
// has at its root the worker the linear scan picks. It returns whether
// that pick tied with another worker's horizon.
func checkFreeWorkers(t *testing.T, name string, s *service) (tied bool) {
	t.Helper()
	at, h := s.workers, s.free
	seen := make([]bool, len(at))
	for j, w := range h {
		if w < 0 || w >= len(at) || seen[w] {
			t.Fatalf("%s: free heap %v is not a permutation of %d workers", name, h, len(at))
		}
		seen[w] = true
		if p := h[(j-1)/2]; j > 0 && (at[w] < at[p] || at[w] == at[p] && w < p) {
			t.Fatalf("%s: free heap slot %d (worker %d, horizon %v) sorts before its parent (worker %d, horizon %v)", name, j, w, at[w], p, at[p])
		}
	}
	want := linearFreeWorker(at)
	if got := s.freeWorkerLocked(); got != want {
		t.Fatalf("%s: free worker %d, the linear scan picks %d (horizons %v)", name, got, want, at)
	}
	for w, busy := range at {
		if w != want && busy == at[want] {
			return true
		}
	}
	return false
}

// TestFreeWorkerHeapMatchesLinearScan holds the free-worker heap to the
// linear scan it replaced. The eager path admits batches of 0 to 2 frames,
// some with a dyadic extra service time, on pools of 1 to 32 workers and a
// clock that often stands still, so horizons tie; every admission must
// start at the horizon of the worker the scan picks (or now). The deferred
// path runs wfq with coalescing, whose groups take the free worker
// through assignGroupLocked, and checks the heap after every dispatch.
// Both fail unless ties were met.
func TestFreeWorkerHeapMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 1))
	pick := func(xs ...float64) float64 { return xs[rng.IntN(len(xs))] }
	ties := 0
	for _, workers := range []int{1, 2, 3, 5, 8, 32} {
		d := onReplica(newTierDevice(t, oneReplica(ServiceConfig{Workers: workers}), "dev", 1, DeviceOptions{}))
		svc := d.svc
		now := 0.0
		for i := 0; i < 3000; i++ {
			if checkFreeWorkers(t, "eager", svc) {
				ties++
			}
			w := linearFreeWorker(svc.workers)
			wantStart := math.Max(now, svc.workers[w])
			adm, ok := d.admit(rng.IntN(3), now, pick(0, 0, 0.5, 0.25))
			if !ok || adm.Start != wantStart {
				t.Fatalf("%d workers, admission %d at %v: start %v (admitted %t), worker %d frees at %v", workers, i, now, adm.Start, ok, w, wantStart)
			}
			if rng.IntN(3) == 0 {
				now += pick(0.045, 0.5, rng.Float64())
			}
		}
	}
	if ties == 0 {
		t.Fatal("the eager path met no tied horizons")
	}

	ties = 0
	frames := serviceFrames(t, 3)
	for _, workers := range []int{2, 5, 32} {
		tier := oneReplica(ServiceConfig{Policy: PolicyWFQ, Workers: workers, Coalesce: 3})
		svc := tier.replicas[0]
		sched := sim.NewScheduler()
		tier.Bind(sched)
		devs := make([]*serviceDevice, 6)
		for i := range devs {
			devs[i] = newAnalyticDevice(t, tier, string(rune('a'+i)), uint64(i+1))
		}
		served := func(BatchResult) {
			if checkFreeWorkers(t, "deferred", svc) {
				ties++
			}
		}
		for op := 0; op < 2000; op++ {
			now := sched.Now()
			if rng.IntN(3) > 0 {
				devs[rng.IntN(len(devs))].enqueue(frames[:1+rng.IntN(len(frames))], now, 0, served)
			} else {
				sched.AdvanceTo(now + pick(0, 0.045, 0.2*rng.Float64()))
			}
		}
		sched.AdvanceTo(math.Inf(1))
		checkFreeWorkers(t, "deferred, drained", svc)
	}
	if ties == 0 {
		t.Fatal("the deferred path met no tied horizons")
	}
}
