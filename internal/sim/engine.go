package sim

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// Actor is a simulated component the fleet Engine advances in virtual time.
// Its key, NextEventTime, is a lower bound on the time of its next outbox
// emission or local event — not necessarily its next frame: an actor whose
// coming frames cannot emit may name a later time and be left asleep, and
// AdvanceTo then replays what it slept through. The engine runs a shared
// event only once every key is at or after it, so an actor whose key is
// late would emit behind the shared clock and break the global order; one
// whose key is early only costs an extra visit. Sleeping is sound because an
// actor only ever lags the shared clock: what shared events do to it arrives
// as local events at or after their own time, which the key covers. An
// actor advancing inside a parallel shard may touch only its own state;
// anything destined for shared state must be posted to its Outbox, and the
// actor must stop advancing as soon as it has emitted (the emission-halt
// contract) so the engine can merge and re-price the global timeline before
// any later local work observes it.
type Actor interface {
	// NextEventTime returns a time at or before the actor's next emission
	// or local event; ok is false once the actor has nothing left to do. The
	// engine re-reads it after AdvanceTo and after MarkDirty, never otherwise.
	NextEventTime() (t float64, ok bool)
	// AdvanceTo executes the actor's work strictly before limit, stopping
	// early if it posts to its Outbox.
	AdvanceTo(limit float64)
}

// outEvent is one buffered emission: a callback bound for the shared
// timeline, held until the serial merge assigns it a global sequence number.
type outEvent struct {
	at float64
	fn func(now float64)
}

// Outbox is the Timeline handed to an actor for cross-device work. Posts
// buffer locally — safe inside a parallel shard — and the engine drains
// them into the shared scheduler serially, in device-index order, so the
// global (time, seq) order is identical at any worker count.
type Outbox struct {
	events []outEvent
}

// At implements Timeline by buffering the event for the next serial merge.
func (o *Outbox) At(t float64, fn func(now float64)) {
	o.events = append(o.events, outEvent{at: t, fn: fn})
}

// Pending returns the number of buffered emissions.
func (o *Outbox) Pending() int { return len(o.events) }

// mergeEvent is one outbox emission tagged with its global merge key: the
// clamped time (the value At would assign after its past-time clamp), the
// owning device index, and the emission index within that device's outbox.
// The three fields make every key unique, so the merge comparator is a
// strict total order and any correct sort or merge schedule produces the
// same permutation.
type mergeEvent struct {
	at   float64
	dev  int32
	emit int32
	fn   func(now float64)
}

// mergeLess orders mergeEvents by (clamped time, device index, emission
// index) — the canonical global order of one batch's emissions.
func mergeLess(a, b mergeEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.dev != b.dev {
		return a.dev < b.dev
	}
	return a.emit < b.emit
}

// mergeCmp is mergeLess as a three-way comparison for slices.SortFunc.
func mergeCmp(a, b mergeEvent) int {
	if mergeLess(a, b) {
		return -1
	}
	return 1 // keys are unique: never equal
}

// Engine is the fleet's discrete-event core. It owns one shared scheduler
// (cloud service dispatch, upload arrivals, shared-medium events) plus N
// actors with private event queues, and interleaves them under a global
// order: every device event strictly before the next shared event runs
// first, then the shared event executes serially. Devices between shared
// events are independent by construction — their only communication channel
// is the outbox, drained serially — so the engine may advance any subset of
// them concurrently without changing a single result byte.
type Engine struct {
	shared  *Scheduler
	actors  []Actor
	out     []*Outbox
	workers int

	// Indexed min-heap over device next-event times: heap holds device
	// indices ordered by (keys[i], i), pos maps device → heap slot (-1 when
	// absent). The order is total, so the set of devices before any limit —
	// and therefore every batch — is independent of the heap's layout;
	// determinism never rests on insertion or restore order.
	keys []float64
	pos  []int
	heap []int

	// The current epoch's batch, selected in place (selectBatch): batch holds
	// its devices in ascending index order, bpos their heap slots in ascending
	// slot order, bits is the device-index bitset that orders a large batch
	// without a comparison sort. None of the batch leaves the heap; its slots
	// are re-priced after the advance (restoreBatch).
	batch []int
	bpos  []int
	bits  []uint64
	bn    int

	// Serial-phase bookkeeping: local schedulers ping MarkDirty (via their
	// wakers) when a shared-timeline callback posts fresh device-local work,
	// so only those devices need their heap keys recomputed — never an O(N)
	// rescan per epoch.
	inSerial  bool
	dirty     []int
	dirtyMark []bool
	dn        int

	// Hierarchical merge state: each advance shard collects its chunk's
	// outbox emissions into a key-sorted run (runs), a tournament reduction
	// two-way-merges them into one global run, and the shared scheduler
	// bulk-appends the result. Every merge node in the reduction tree draws
	// a fresh buffer from mbuf (a tournament over S runs performs exactly
	// S−1 merges, and S ≤ workers), so no round can write into another's
	// input; level holds the surviving slice headers between rounds. All
	// buffers grow once and are reused across epochs.
	nshards int
	runs    [][]mergeEvent
	mbuf    [][]mergeEvent
	level   [][]mergeEvent

	// Optional phase telemetry: clock is an injected wall-time sampler
	// (seconds); nil keeps the hot loop free of timing calls. Accumulators
	// are diagnostics only — never part of results or the determinism
	// contract.
	clock      func() float64
	advanceSec float64
	mergeSec   float64
	serialSec  float64

	epochs int64
}

// NewEngine creates an engine over the shared scheduler. workers ≤ 1 runs
// every epoch inline; larger values shard each device batch across that
// many goroutines (results are byte-identical either way).
func NewEngine(shared *Scheduler, workers int) *Engine {
	if workers < 1 {
		workers = 1
	}
	return &Engine{shared: shared, workers: workers}
}

// Add registers an actor and its outbox, returning the device index used
// for ordering and MarkDirty. Call only before Run.
func (e *Engine) Add(a Actor, out *Outbox) int {
	e.actors = append(e.actors, a)
	e.out = append(e.out, out)
	return len(e.actors) - 1
}

// MarkDirty records that device i gained local work during the serial
// phase. Outside the serial phase it is a no-op: a device dirtying itself
// while advancing is already handled by the merge that follows its batch.
func (e *Engine) MarkDirty(i int) {
	if !e.inSerial || e.dirtyMark[i] {
		return
	}
	e.dirtyMark[i] = true
	e.dirty[e.dn] = i
	e.dn++
}

// Epochs returns the number of engine iterations (device batches plus
// serial phases) executed so far. It counts how the engine got there, not
// what the actors did: actors with tighter keys need fewer iterations for
// the same events.
func (e *Engine) Epochs() int64 { return e.epochs }

// SetClock injects a wall-time sampler (seconds) used to attribute the
// engine's wall time to its phases. Pass nil (the default) to disable; sim
// code must hand in an injected clock (e.g. the Config PerfClock) rather
// than reading wall time itself — the wallclock analyzer enforces that.
func (e *Engine) SetClock(fn func() float64) { e.clock = fn }

// PhaseSeconds reports accumulated wall seconds by engine phase since the
// last Run started: advance (parallel device fast-forward), merge (shard-run
// reduction plus the shared-heap bulk append), serial (shared-timeline
// execution plus dirty-key flushes). All zero unless SetClock was provided.
func (e *Engine) PhaseSeconds() (advance, merge, serial float64) {
	return e.advanceSec, e.mergeSec, e.serialSec
}

// stamp samples the injected clock, or returns 0 when none is set (the
// subtraction of two zeros keeps the accumulators untouched).
func (e *Engine) stamp() float64 {
	if e.clock == nil {
		return 0
	}
	return e.clock()
}

// Run executes the fleet until no actor or shared event remains at or
// before end. Shared events at exactly end still run (matching the
// drain-to-duration semantics of a single Session's Finish); device-local
// work at end is left to each actor's own finalization.
//
//shoggoth:hotpath
func (e *Engine) Run(ctx context.Context, end float64) error {
	e.init()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !e.step(end) {
			return nil
		}
	}
}

// step runs one epoch — the batch of devices due before the next shared
// event (or end), or, when none is, that shared event — and reports whether
// it found anything to run.
func (e *Engine) step(end float64) bool {
	tb, hasShared := e.shared.NextTime()
	limit := end
	if hasShared && tb < limit {
		limit = tb
	}
	e.selectBatch(limit)
	if e.bn == 0 {
		if !hasShared || tb > end {
			return false
		}
		t0 := e.stamp()
		e.inSerial = true
		e.shared.AdvanceTo(tb)
		e.inSerial = false
		e.flushDirty()
		e.serialSec += e.stamp() - t0
		e.epochs++
		return true
	}
	t0 := e.stamp()
	e.advanceBatch(limit)
	t1 := e.stamp()
	e.mergeBatch()
	e.mergeSec += e.stamp() - t1
	e.advanceSec += t1 - t0
	e.epochs++
	return true
}

// init sizes the per-device arrays and seeds the heap from every actor's
// first event time. Buffers are reused across Runs of the same size.
func (e *Engine) init() {
	n := len(e.actors)
	if len(e.keys) < n {
		e.keys = make([]float64, n)
		e.pos = make([]int, n)
		e.heap = make([]int, 0, n)
		e.batch = make([]int, n)
		e.bpos = make([]int, n)
		e.bits = make([]uint64, (n+63)/64)
		e.dirty = make([]int, n)
		e.dirtyMark = make([]bool, n)
	}
	if len(e.runs) < e.workers {
		e.runs = make([][]mergeEvent, e.workers)
		e.mbuf = make([][]mergeEvent, e.workers)
		e.level = make([][]mergeEvent, e.workers)
	}
	e.heap = e.heap[:0]
	e.bn, e.dn = 0, 0
	e.nshards = 0
	e.advanceSec, e.mergeSec, e.serialSec = 0, 0, 0
	for i := 0; i < n; i++ {
		e.pos[i] = -1
		e.dirtyMark[i] = false
		if t, ok := e.actors[i].NextEventTime(); ok {
			e.keys[i] = t
			e.pos[i] = len(e.heap)
			e.heap = e.heap[:len(e.heap)+1] // cap preallocated to n above
			e.heap[e.pos[i]] = i
		}
	}
	e.heapify()
}

// selectBatch finds every device whose next event is strictly before limit
// and lists it in e.batch by ascending device index, so chunk assignment and
// the merge order are canonical. Nothing is removed from the heap: the
// devices before limit form a sub-tree at its top (a node at or after limit
// roots a sub-tree of such nodes), so a breadth-first walk that stops at
// those nodes visits exactly the batch, in O(batch), with heap slots
// ascending — bpos is the walk's own queue.
//
//shoggoth:hotpath
func (e *Engine) selectBatch(limit float64) {
	e.bn = 0
	n := len(e.heap)
	if n == 0 || e.keys[e.heap[0]] >= limit {
		return
	}
	bpos := e.bpos
	bpos[0] = 0
	tail := 1
	for head := 0; head < tail; head++ {
		c := 2*bpos[head] + 1
		if c < n && e.keys[e.heap[c]] < limit {
			bpos[tail] = c
			tail++
		}
		if c++; c < n && e.keys[e.heap[c]] < limit {
			bpos[tail] = c
			tail++
		}
	}
	e.bn = tail
	e.sortBatch()
}

// sortBatch fills e.batch with the devices at bpos in ascending index order.
// A small batch is sorted by comparison; a large one is marked in the device
// bitset and read back by scanning the words between its lowest and highest
// device, which costs a word per 64 devices of that span whatever the batch
// size — a whole-fleet frame tick is ordered in O(N/64 + batch).
func (e *Engine) sortBatch() {
	k := e.bn
	batch := e.batch[:k]
	if k*bits.Len(uint(k)) < len(e.bits) {
		for x, p := range e.bpos[:k] {
			batch[x] = e.heap[p]
		}
		slices.Sort(batch)
		return
	}
	lo, hi := len(e.actors), 0
	for _, p := range e.bpos[:k] {
		i := e.heap[p]
		e.bits[i>>6] |= 1 << (uint(i) & 63)
		if i < lo {
			lo = i
		}
		if i > hi {
			hi = i
		}
	}
	x := 0
	for w := lo >> 6; w <= hi>>6; w++ {
		word := e.bits[w]
		e.bits[w] = 0
		for word != 0 {
			batch[x] = w<<6 | bits.TrailingZeros64(word)
			x++
			word &= word - 1
		}
	}
}

// advanceBatch fast-forwards every selected device to limit — inline for one
// worker, otherwise on contiguous chunks across the worker pool — and has
// each shard collect its chunk's outbox emissions into a key-sorted run for
// the tournament merge. Devices in a batch share no mutable state (emissions
// buffer in per-device outboxes, runs are per-shard), so the split affects
// wall time only. The shared clock is sampled once up front: nothing
// executes on the shared timeline during an advance, so the At clamp every
// emission would receive is computable inside the shard.
func (e *Engine) advanceBatch(limit float64) {
	now := e.shared.Now()
	if e.workers <= 1 || e.bn <= 1 {
		e.nshards = 1
		e.runShard(0, 0, e.bn, limit, now)
		return
	}
	chunk := (e.bn + e.workers - 1) / e.workers
	e.nshards = (e.bn + chunk - 1) / chunk
	var wg sync.WaitGroup
	s := 0
	for lo := 0; lo < e.bn; lo += chunk {
		hi := lo + chunk
		if hi > e.bn {
			hi = e.bn
		}
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			e.runShard(s, lo, hi, limit, now)
		}(s, lo, hi)
		s++
	}
	wg.Wait()
}

// runShard advances batch[lo:hi] and gathers their emissions into
// e.runs[s], sorted by the (clamped time, device index, emission index)
// merge key. Keys are unique, so the sorted permutation is independent of
// the sort algorithm and of how devices interleaved their work.
func (e *Engine) runShard(s, lo, hi int, limit, now float64) {
	total := 0
	for k := lo; k < hi; k++ {
		i := e.batch[k]
		e.actors[i].AdvanceTo(limit)
		total += len(e.out[i].events)
	}
	run := e.runs[s]
	if cap(run) < total {
		run = make([]mergeEvent, total, total+total/2)
	}
	run = run[:total]
	x := 0
	for k := lo; k < hi; k++ {
		i := e.batch[k]
		ev := e.out[i].events
		for j := range ev {
			at := ev[j].at
			if at < now {
				at = now // the clamp At would apply; part of the merge key
			}
			run[x] = mergeEvent{at: at, dev: int32(i), emit: int32(j), fn: ev[j].fn}
			x++
		}
		e.out[i].events = ev[:0]
	}
	slices.SortFunc(run, mergeCmp)
	e.runs[s] = run
}

// mergeRuns reduces the shards' sorted runs to one globally sorted run via a
// tournament: every round two-way-merges adjacent pairs — concurrently when
// the engine has workers to spare — so the reduction tree is ⌈log₂ shards⌉
// deep instead of a serial K-way scan. Each merge node draws a fresh buffer
// from the mbuf pool (a tournament over S runs is exactly S−1 merges), so no
// round can write into another's input.
func (e *Engine) mergeRuns() []mergeEvent {
	if e.nshards == 0 {
		return nil
	}
	lvl := e.level[:e.nshards]
	copy(lvl, e.runs[:e.nshards])
	next := 0 // running buffer index: each merge node owns a distinct slot
	for n := e.nshards; n > 1; {
		pairs := n / 2
		base := next
		if pairs > 1 && e.workers > 1 {
			var wg sync.WaitGroup
			for p := 0; p < pairs; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					e.mbuf[base+p] = mergeTwo(e.mbuf[base+p], lvl[2*p], lvl[2*p+1])
				}(p)
			}
			wg.Wait()
		} else {
			for p := 0; p < pairs; p++ {
				e.mbuf[base+p] = mergeTwo(e.mbuf[base+p], lvl[2*p], lvl[2*p+1])
			}
		}
		next = base + pairs
		m := pairs
		if n%2 == 1 {
			// Odd run passes through untouched; move the header only.
			lvl[pairs] = lvl[n-1]
			m++
		}
		copy(lvl, e.mbuf[base:next])
		n = m
	}
	return lvl[0]
}

// mergeTwo two-way-merges sorted runs a and b into dst (grown once,
// reused across epochs).
func mergeTwo(dst, a, b []mergeEvent) []mergeEvent {
	need := len(a) + len(b)
	if cap(dst) < need {
		dst = make([]mergeEvent, need, need+need/2)
	}
	dst = dst[:need]
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if mergeLess(a[i], b[j]) {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
	return dst
}

// mergeBatch hands the tournament-merged run of this batch's emissions to
// the shared scheduler in one bulk append, then re-prices each advanced
// device's heap key.
//
// Byte-identity with the old serial device-index drain: the drain assigned
// sequence numbers in (device index, emission index) order, and execution
// order is (time, seq) — so seq only matters between equal-time events,
// where the sorted run's (clamped time, device index, emission index) key
// reproduces the identical tie-break. Events appended here always carry
// larger seqs than everything already queued, and smaller than anything a
// later callback posts, exactly as before; the heap pop sequence depends
// only on that total order, so every callback executes at the same virtual
// time in the same order with the same state, at any worker count.
//
//shoggoth:hotpath
func (e *Engine) mergeBatch() {
	e.shared.appendSorted(e.mergeRuns())
	e.restoreBatch()
}

// restoreBatch re-prices the advanced batch where it sits. Only the slots in
// bpos changed key, and they form a sub-tree at the top of the heap, so
// Floyd's bottom-up heapify restricted to those slots restores the
// invariant: taken in descending slot order, each slot's children already
// root valid heaps (advanced ones were restored first, the rest were never
// touched), and one siftDown settles it — whatever the new keys are, because
// every ancestor of a re-priced slot is re-priced after it. An advance moves
// a device's next event later, so most siftDowns stop where they start:
// O(batch) when the whole fleet moved, O(batch · log N) at worst. Finished
// actors sink as +Inf and are removed afterwards.
func (e *Engine) restoreBatch() {
	finished := false
	for _, i := range e.batch[:e.bn] {
		t, ok := e.actors[i].NextEventTime()
		if !ok {
			t = math.Inf(1)
			finished = true
		}
		e.keys[i] = t
	}
	for k := e.bn - 1; k >= 0; k-- {
		e.siftDown(e.bpos[k])
	}
	if finished {
		for _, i := range e.batch[:e.bn] {
			if _, ok := e.actors[i].NextEventTime(); !ok {
				e.removeAt(e.pos[i])
			}
		}
	}
	e.checkHeap()
}

// heapErr states the queue's invariants and reports the first one broken:
// every slot orders at or after its parent under (key, device index), pos
// inverts heap, and no finished device is queued. The shoggothdebug build
// asserts it after every restore; the tests call it directly.
func (e *Engine) heapErr() error {
	for j, i := range e.heap {
		if e.pos[i] != j {
			return fmt.Errorf("slot %d holds device %d whose pos is %d", j, i, e.pos[i])
		}
		if p := e.heap[(j-1)/2]; j > 0 && e.less(i, p) {
			return fmt.Errorf("slot %d (device %d, key %g) orders before its parent (device %d, key %g)", j, i, e.keys[i], p, e.keys[p])
		}
		if _, ok := e.actors[i].NextEventTime(); !ok {
			return fmt.Errorf("finished device %d still queued at slot %d", i, j)
		}
	}
	queued := 0
	for _, p := range e.pos[:len(e.actors)] {
		if p >= 0 {
			queued++
		}
	}
	if queued != len(e.heap) {
		return fmt.Errorf("%d devices carry a heap slot, the heap holds %d", queued, len(e.heap))
	}
	return nil
}

// heapify rebuilds the heap invariant over every queued device in O(N).
func (e *Engine) heapify() {
	for j := len(e.heap)/2 - 1; j >= 0; j-- {
		e.siftDown(j)
	}
}

// flushDirty re-prices every device whose local queue changed during the
// serial phase.
func (e *Engine) flushDirty() {
	for k := 0; k < e.dn; k++ {
		i := e.dirty[k]
		e.dirtyMark[i] = false
		e.updateKey(i)
	}
	e.dn = 0
}

// updateKey refreshes device i's heap key from its actor, inserting,
// moving or removing it as needed.
func (e *Engine) updateKey(i int) {
	t, ok := e.actors[i].NextEventTime()
	if !ok {
		if e.pos[i] >= 0 {
			e.removeAt(e.pos[i])
		}
		return
	}
	e.keys[i] = t
	if e.pos[i] >= 0 {
		e.fix(e.pos[i])
	} else {
		e.push(i)
	}
}

// less orders heap entries by (next event time, device index): the tie-break
// that pins simultaneous device events to a canonical order.
func (e *Engine) less(a, b int) bool {
	if e.keys[a] != e.keys[b] {
		return e.keys[a] < e.keys[b]
	}
	return a < b
}

func (e *Engine) push(i int) {
	j := len(e.heap)
	e.heap = e.heap[:j+1] // cap preallocated to N in init; fleet size is fixed
	e.heap[j] = i
	e.pos[i] = j
	e.siftUp(j)
}

func (e *Engine) removeAt(j int) {
	n := len(e.heap) - 1
	e.pos[e.heap[j]] = -1
	if j != n {
		e.heap[j] = e.heap[n]
		e.pos[e.heap[j]] = j
	}
	e.heap = e.heap[:n]
	if j < n {
		e.fix(j)
	}
}

func (e *Engine) fix(j int) {
	if !e.siftDown(j) {
		e.siftUp(j)
	}
}

func (e *Engine) siftUp(j int) {
	for j > 0 {
		parent := (j - 1) / 2
		if !e.less(e.heap[j], e.heap[parent]) {
			break
		}
		e.swap(j, parent)
		j = parent
	}
}

func (e *Engine) siftDown(j int) bool {
	moved := false
	n := len(e.heap)
	for {
		left := 2*j + 1
		if left >= n {
			return moved
		}
		small := left
		if right := left + 1; right < n && e.less(e.heap[right], e.heap[left]) {
			small = right
		}
		if !e.less(e.heap[small], e.heap[j]) {
			return moved
		}
		e.swap(j, small)
		j = small
		moved = true
	}
}

func (e *Engine) swap(a, b int) {
	e.heap[a], e.heap[b] = e.heap[b], e.heap[a]
	e.pos[e.heap[a]] = a
	e.pos[e.heap[b]] = b
}
