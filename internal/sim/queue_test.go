package sim

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

// popAllEngine is the engine as it was before batches were selected in
// place, kept as the oracle for the queue property test: every epoch pops
// each due device off the indexed heap one by one, sorts the popped indices,
// advances them serially, drains their outboxes into the shared scheduler
// one At at a time in merge-key order, and pushes each device back. It is
// the slowest correct statement of what an epoch is.
type popAllEngine struct {
	shared *Scheduler
	actors []Actor
	out    []*Outbox

	keys []float64
	pos  []int
	heap []int

	batch    []int
	inSerial bool
	dirty    []int
	epochs   int64
}

func (o *popAllEngine) add(a Actor, out *Outbox) int {
	o.actors = append(o.actors, a)
	o.out = append(o.out, out)
	return len(o.actors) - 1
}

func (o *popAllEngine) markDirty(i int) {
	if o.inSerial && !slices.Contains(o.dirty, i) {
		o.dirty = append(o.dirty, i)
	}
}

func (o *popAllEngine) init() {
	n := len(o.actors)
	o.keys = make([]float64, n)
	o.pos = make([]int, n)
	for i := range o.pos {
		o.pos[i] = -1
		o.updateKey(i)
	}
}

func (o *popAllEngine) step(end float64) bool {
	tb, hasShared := o.shared.NextTime()
	limit := end
	if hasShared && tb < limit {
		limit = tb
	}
	o.popBatch(limit)
	if len(o.batch) == 0 {
		if !hasShared || tb > end {
			return false
		}
		o.inSerial = true
		o.shared.AdvanceTo(tb)
		o.inSerial = false
		for _, i := range o.dirty {
			o.updateKey(i)
		}
		o.dirty = o.dirty[:0]
		o.epochs++
		return true
	}
	now := o.shared.Now()
	var run []mergeEvent
	for _, i := range o.batch {
		o.actors[i].AdvanceTo(limit)
		for j, ev := range o.out[i].events {
			at := ev.at
			if at < now {
				at = now
			}
			run = append(run, mergeEvent{at: at, dev: int32(i), emit: int32(j), fn: ev.fn})
		}
		o.out[i].events = o.out[i].events[:0]
	}
	slices.SortFunc(run, mergeCmp)
	for _, ev := range run {
		o.shared.At(ev.at, ev.fn)
	}
	for _, i := range o.batch {
		o.updateKey(i)
	}
	o.epochs++
	return true
}

func (o *popAllEngine) popBatch(limit float64) {
	o.batch = o.batch[:0]
	for len(o.heap) > 0 {
		i := o.heap[0]
		if o.keys[i] >= limit {
			break
		}
		o.removeAt(0)
		o.batch = append(o.batch, i)
	}
	sort.Ints(o.batch)
}

func (o *popAllEngine) updateKey(i int) {
	t, ok := o.actors[i].NextEventTime()
	if !ok {
		if o.pos[i] >= 0 {
			o.removeAt(o.pos[i])
		}
		return
	}
	o.keys[i] = t
	if o.pos[i] >= 0 {
		o.fix(o.pos[i])
		return
	}
	o.heap = append(o.heap, i)
	o.pos[i] = len(o.heap) - 1
	o.siftUp(o.pos[i])
}

func (o *popAllEngine) less(a, b int) bool {
	if o.keys[a] != o.keys[b] {
		return o.keys[a] < o.keys[b]
	}
	return a < b
}

func (o *popAllEngine) removeAt(j int) {
	n := len(o.heap) - 1
	o.pos[o.heap[j]] = -1
	if j != n {
		o.heap[j] = o.heap[n]
		o.pos[o.heap[j]] = j
	}
	o.heap = o.heap[:n]
	if j < n {
		o.fix(j)
	}
}

func (o *popAllEngine) fix(j int) {
	if !o.siftDown(j) {
		o.siftUp(j)
	}
}

func (o *popAllEngine) siftUp(j int) {
	for j > 0 {
		parent := (j - 1) / 2
		if !o.less(o.heap[j], o.heap[parent]) {
			break
		}
		o.swap(j, parent)
		j = parent
	}
}

func (o *popAllEngine) siftDown(j int) bool {
	moved := false
	for {
		small := 2*j + 1
		if small >= len(o.heap) {
			return moved
		}
		if r := small + 1; r < len(o.heap) && o.less(o.heap[r], o.heap[small]) {
			small = r
		}
		if !o.less(o.heap[small], o.heap[j]) {
			return moved
		}
		o.swap(j, small)
		j = small
		moved = true
	}
}

func (o *popAllEngine) swap(a, b int) {
	o.heap[a], o.heap[b] = o.heap[b], o.heap[a]
	o.pos[o.heap[a]] = a
	o.pos[o.heap[b]] = b
}

// wakeActor is a device with a fixed list of wake times on a coarse grid
// (so times tie across devices and with shared events). Some wakes emit a
// shared event and halt; the shared callback, running in the serial phase,
// posts a local event on a peer — at the callback's own time, which is
// usually earlier than the peer's queued key, so MarkDirty must move a
// device towards the root. An actor whose wakes run out mid-run finishes,
// and a later poke revives it.
type wakeActor struct {
	idx   int
	sched *Scheduler
	out   *Outbox
	wakes []float64 // ascending; ties allowed
	emit  []bool    // emit[k]: wake k posts a shared event
	next  int
	fleet *[]*wakeActor
	trace *[]string // shared log: serial phase only

	local []string // this device's own log: its shard only
}

func (a *wakeActor) NextEventTime() (float64, bool) {
	lt, lok := a.sched.NextTime()
	if a.next < len(a.wakes) && (!lok || a.wakes[a.next] <= lt) {
		return a.wakes[a.next], true
	}
	return lt, lok
}

func (a *wakeActor) AdvanceTo(limit float64) {
	for {
		lt, lok := a.sched.NextTime()
		if a.next < len(a.wakes) && a.wakes[a.next] < limit && (!lok || a.wakes[a.next] <= lt) {
			k := a.next
			t := a.wakes[k]
			a.next++
			a.sched.AdvanceTo(t)
			a.local = append(a.local, fmt.Sprintf("wake%d@%g", k, t))
			if a.emit[k] {
				a.out.At(t-0.5+float64(k%3)*0.5, a.poke(k)) // before, at and after t: the clamp is exercised
				return                                      // emission-halt
			}
			continue
		}
		if !lok || lt >= limit {
			return
		}
		a.sched.AdvanceTo(lt)
	}
}

// poke is the shared callback of wake k: it logs itself and posts a local
// event on a peer chosen by k, due at once.
func (a *wakeActor) poke(k int) func(float64) {
	return func(now float64) {
		*a.trace = append(*a.trace, fmt.Sprintf("%g dev%d wake%d", now, a.idx, k))
		peer := (*a.fleet)[(a.idx*7+k*3)%len(*a.fleet)]
		peer.sched.At(now, func(at float64) {
			peer.local = append(peer.local, fmt.Sprintf("poked by %d@%g", a.idx, at))
		})
	}
}

// buildWakeFleet creates n actors from the seed and registers them through
// add, wiring each local scheduler's waker to markDirty.
func buildWakeFleet(seed uint64, n int, horizon float64, trace *[]string,
	add func(Actor, *Outbox) int, markDirty func(int)) []*wakeActor {

	rng := rand.New(rand.NewPCG(seed, 0x51E))
	fleet := make([]*wakeActor, n)
	// A shared frame grid makes some epochs move the whole fleet; private
	// wakes in between make others move one device.
	frame := 0.5 * float64(1+rng.IntN(4))
	for i := range fleet {
		a := &wakeActor{idx: i, sched: NewScheduler(), out: &Outbox{}, fleet: &fleet, trace: trace}
		stop := horizon
		if rng.IntN(3) == 0 {
			stop = horizon * rng.Float64() // finishes mid-run
		}
		for t := 0.0; t < stop; t += frame {
			a.wakes = append(a.wakes, t)
		}
		for k := rng.IntN(6); k > 0; k-- {
			a.wakes = append(a.wakes, 0.25*float64(rng.IntN(int(4*horizon))))
		}
		slices.Sort(a.wakes)
		a.emit = make([]bool, len(a.wakes))
		for k := range a.emit {
			a.emit[k] = rng.IntN(5) == 0
		}
		idx := add(a, a.out)
		a.sched.SetWaker(func() { markDirty(idx) })
		fleet[i] = a
	}
	return fleet
}

// TestEngineQueueMatchesPopAll drives the engine and the pop-all oracle over
// identical seeded fleets, one epoch at a time, and requires the same batch
// (same devices, ascending index) in every epoch, the same epoch count, the
// same shared-event trace and the same per-device event logs, at 1, 2 and 8
// workers. Fleet sizes run from one device to a few hundred, so batches run
// from one device to the whole fleet and both batch orderings (comparison
// sort and bitset) are exercised.
func TestEngineQueueMatchesPopAll(t *testing.T) {
	const horizon = 12.0
	sizes := []int{1, 2, 3, 17, 64, 65, 300}
	sorted, bitset, whole, single := 0, 0, 0, 0
	for trial := 0; trial < 42; trial++ {
		seed := uint64(trial + 1)
		n := sizes[trial%len(sizes)]
		workers := []int{1, 2, 8}[trial%3]

		var wantTrace []string
		oracle := &popAllEngine{shared: NewScheduler()}
		wantFleet := buildWakeFleet(seed, n, horizon, &wantTrace, oracle.add, oracle.markDirty)
		oracle.init()

		var gotTrace []string
		eng := NewEngine(NewScheduler(), workers)
		gotFleet := buildWakeFleet(seed, n, horizon, &gotTrace, eng.Add, eng.MarkDirty)
		eng.init()

		for epoch := 0; ; epoch++ {
			more, wantMore := eng.step(horizon), oracle.step(horizon)
			if more != wantMore {
				t.Fatalf("trial %d (n=%d workers=%d) epoch %d: engine continues=%v, oracle continues=%v",
					trial, n, workers, epoch, more, wantMore)
			}
			if !more {
				break
			}
			got := eng.batch[:eng.bn]
			if !slices.Equal(got, oracle.batch) {
				t.Fatalf("trial %d (n=%d workers=%d) epoch %d: batch %v, oracle popped %v",
					trial, n, workers, epoch, got, oracle.batch)
			}
			if err := eng.heapErr(); err != nil {
				t.Fatalf("trial %d (n=%d workers=%d) epoch %d: %v", trial, n, workers, epoch, err)
			}
			if k := len(got); k > 0 {
				if k*bits.Len(uint(k)) < len(eng.bits) { // sortBatch's threshold
					sorted++
				} else {
					bitset++
				}
				if k == len(eng.heap) && n > 1 {
					whole++
				}
				if k == 1 && n > 1 {
					single++
				}
			}
		}
		if eng.Epochs() != oracle.epochs {
			t.Fatalf("trial %d: %d epochs, oracle %d", trial, eng.Epochs(), oracle.epochs)
		}
		if !slices.Equal(gotTrace, wantTrace) {
			t.Fatalf("trial %d (n=%d workers=%d): shared trace diverged\n got %v\nwant %v", trial, n, workers, gotTrace, wantTrace)
		}
		if eng.shared.Executed() != oracle.shared.Executed() {
			t.Fatalf("trial %d: %d shared events executed, oracle %d", trial, eng.shared.Executed(), oracle.shared.Executed())
		}
		for i := range gotFleet {
			if !slices.Equal(gotFleet[i].local, wantFleet[i].local) {
				t.Fatalf("trial %d (n=%d workers=%d) device %d: local log diverged\n got %v\nwant %v",
					trial, n, workers, i, gotFleet[i].local, wantFleet[i].local)
			}
		}
	}
	if sorted == 0 || bitset == 0 || whole == 0 || single == 0 {
		t.Fatalf("the trials missed a case: %d sorted batches, %d bitset batches, %d whole-fleet, %d single-device",
			sorted, bitset, whole, single)
	}
}

// scriptActor reports a scripted next-event time after each advance,
// whatever the limit was — including times earlier than the one it had,
// which no real actor produces.
type scriptActor struct {
	times  []float64
	visits int
}

func (a *scriptActor) NextEventTime() (float64, bool) {
	if a.visits == len(a.times) {
		return 0, false
	}
	return a.times[a.visits], true
}
func (a *scriptActor) AdvanceTo(float64) { a.visits++ }

// TestEngineRestoreTakesAnyKeys checks that the in-place restore does not
// lean on keys growing: a partial batch at the top of the heap whose devices
// come back earlier than they were, and in reversed order among themselves,
// still leaves a valid heap.
func TestEngineRestoreTakesAnyKeys(t *testing.T) {
	eng := NewEngine(NewScheduler(), 1)
	var ticks []*tickActor
	for i := 0; i < 40; i++ {
		a := &tickActor{sched: NewScheduler(), out: &Outbox{}, next: float64(i % 5), step: 1, remaining: 30}
		eng.Add(a, a.out)
		ticks = append(ticks, a)
	}
	var scripted []int
	for i := 0; i < 6; i++ {
		f := float64(i)
		scripted = append(scripted, eng.Add(&scriptActor{times: []float64{10 + f, 17 - f, 4 + f, 3 - f}}, &Outbox{}))
	}
	eng.init()
	epochs := 0
	for eng.step(20) {
		epochs++
		if eng.bn == len(eng.actors) != (epochs == 1) {
			t.Fatalf("epoch %d moved %d of %d devices: want the whole fleet first, then the scripted six", epochs, eng.bn, len(eng.actors))
		}
		if err := eng.heapErr(); err != nil {
			t.Fatalf("epoch %d: %v", epochs, err)
		}
	}
	if epochs != 4 {
		t.Fatalf("%d epochs, want 4 (one per scripted time)", epochs)
	}
	for _, i := range scripted {
		if eng.pos[i] >= 0 {
			t.Errorf("finished device %d still queued", i)
		}
	}
	for i, a := range ticks {
		if want := 20 - i%5; a.tick != want {
			t.Errorf("tick actor %d ran %d ticks before the horizon, want %d", i, a.tick, want)
		}
	}
}
