// Package sim provides the virtual-time machinery for experiments: an event
// scheduler over a virtual clock. A one-hour video stream evaluates in
// seconds of wall time while all latencies, training durations and bandwidth
// integrals remain exact in stream time.
package sim

// event is a scheduled callback.
type event struct {
	at  float64
	seq int64
	fn  func(now float64)
}

// before is the queue's strict total order: time, then sequence number —
// FIFO for simultaneous events. seq is unique, so the pop sequence is a
// function of the set of queued events and never of the heap's layout.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of events ordered by before. It is typed
// (no container/heap) so that a push or pop moves 32-byte values inside the
// slice and never boxes one into an interface.
type eventHeap []event

func (h eventHeap) siftUp(j int) {
	e := h[j]
	for j > 0 {
		parent := (j - 1) / 2
		if !e.before(&h[parent]) {
			break
		}
		h[j] = h[parent]
		j = parent
	}
	h[j] = e
}

func (h eventHeap) siftDown(j int) {
	n := len(h)
	e := h[j]
	for {
		child := 2*j + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(&h[child]) {
			child = r
		}
		if !h[child].before(&e) {
			break
		}
		h[j] = h[child]
		j = child
	}
	h[j] = e
}

// heapify restores the heap invariant over the whole slice in O(n).
func (h eventHeap) heapify() {
	for j := len(h)/2 - 1; j >= 0; j-- {
		h.siftDown(j)
	}
}

// Timeline is the minimal scheduling surface a subsystem needs to post
// future work: "call fn at virtual time t". A *Scheduler implements it
// directly; the fleet Engine substitutes per-device Outboxes so that work
// emitted inside a parallel shard is merged deterministically instead of
// touching the shared heap from many goroutines.
type Timeline interface {
	At(t float64, fn func(now float64))
}

// Handler runs a quiet event: Handle is called at the event's time with
// the argument it was posted with. A poster whose receiver outlives its
// events (a *T, or a type converted from one) posts a typed value without
// allocating a closure for it.
type Handler interface {
	Handle(now, arg float64)
}

// Func adapts a plain event callback to a Handler that ignores its
// argument.
type Func func(now float64)

// Handle calls f(now).
func (f Func) Handle(now, _ float64) { f(now) }

// quietEvent is a scheduled quiet event (see Quiet).
type quietEvent struct {
	at  float64
	seq int64
	h   Handler
	arg float64
}

// quietHeap is eventHeap's min-heap for quiet events, in the same order.
type quietHeap []quietEvent

func (h quietHeap) before(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h quietHeap) siftUp(j int) {
	for j > 0 {
		parent := (j - 1) / 2
		if !h.before(j, parent) {
			break
		}
		h[j], h[parent] = h[parent], h[j]
		j = parent
	}
}

func (h quietHeap) siftDown(j int) {
	for {
		child := 2*j + 1
		if child >= len(h) {
			break
		}
		if r := child + 1; r < len(h) && h.before(r, child) {
			child = r
		}
		if !h.before(child, j) {
			break
		}
		h[j], h[child] = h[child], h[j]
		j = child
	}
}

// Scheduler executes events in virtual-time order. It holds two kinds of
// event. An eager one, posted by At, calls the waker and counts in
// NextEagerTime. A quiet one, posted by Quiet, does neither: it runs only
// when the clock is advanced past it. Both kinds share one sequence
// counter and run in one (time, seq) order.
type Scheduler struct {
	now      float64
	seq      int64
	heap     eventHeap
	quiet    quietHeap
	executed int64
	quietRun int64
	waker    func()
}

// NewScheduler creates a scheduler starting at time 0.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now returns the current virtual time in seconds.
func (s *Scheduler) Now() float64 { return s.now }

// At schedules fn to run at virtual time t. Events scheduled in the past run
// at the current time (never before already-executed events).
func (s *Scheduler) At(t float64, fn func(now float64)) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.heap = append(s.heap, event{at: t, seq: s.seq, fn: fn})
	s.heap.siftUp(len(s.heap) - 1)
	if s.waker != nil {
		s.waker()
	}
}

// Quiet schedules h.Handle(now, arg) at virtual time t as a quiet event,
// clamped to the current time as At clamps. It calls no waker and does not
// count in NextEagerTime, so an owner that sleeps until its next eager
// event runs it only when it next advances; post quiet only what cannot
// move the owner's next emission (see Actor).
func (s *Scheduler) Quiet(t float64, h Handler, arg float64) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.quiet = append(s.quiet, quietEvent{at: t, seq: s.seq, h: h, arg: arg})
	s.quiet.siftUp(len(s.quiet) - 1)
}

// quietFirst reports whether the next quiet event is due by t and runs
// before the next eager event.
func (s *Scheduler) quietFirst(t float64) bool {
	q := &s.quiet[0]
	if q.at > t {
		return false
	}
	if len(s.heap) == 0 {
		return true
	}
	e := &s.heap[0]
	return q.at < e.at || q.at == e.at && q.seq < e.seq
}

// runQuiet removes and runs the next quiet event. The vacated tail slot is
// zeroed so the queue never pins an executed handler.
func (s *Scheduler) runQuiet() {
	h := s.quiet
	n := len(h) - 1
	q := h[0]
	h[0] = h[n]
	h[n] = quietEvent{}
	s.quiet = h[:n]
	if n > 1 {
		s.quiet.siftDown(0)
	}
	s.now = q.at
	s.executed++
	s.quietRun++
	q.h.Handle(s.now, q.arg)
}

// pop removes and returns the earliest event. The vacated tail slot is
// zeroed so the queue never pins an executed callback's closure.
func (s *Scheduler) pop() event {
	h := s.heap
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h[n] = event{}
	s.heap = h[:n]
	if n > 1 {
		s.heap.siftDown(0)
	}
	return top
}

// appendSorted bulk-schedules a merged run of outbox emissions already
// sorted by the fleet merge key (clamped time, device index, emission
// index), assigning consecutive sequence numbers in run order. Times must
// already be clamped to ≥ now by the caller (the same clamp At applies).
//
// Observationally this is identical to calling At once per event: the heap's
// pop order depends only on the (at, seq) comparator — a strict total order —
// never on how entries arrived, and within one merge only equal-time events
// compare by seq, where run order (device index, emission index) reproduces
// exactly the tie-break the serial device-index drain used to produce. When
// the run rivals the heap in size, one O(H+R) heapify replaces R O(log H)
// sift-ups.
//
//shoggoth:hotpath
func (s *Scheduler) appendSorted(run []mergeEvent) {
	if len(run) == 0 {
		return
	}
	n := len(s.heap)
	if cap(s.heap)-n < len(run) {
		need := n + len(run)
		grown := make(eventHeap, n, need+need/2)
		copy(grown, s.heap)
		s.heap = grown
	}
	// Bulk when the run rivals the queue: place everything, then restore the
	// invariant once. Otherwise sift each event up as it lands.
	bulk := len(run) >= n/8
	s.heap = s.heap[:n+len(run)]
	for i := range run {
		s.seq++
		s.heap[n+i] = event{at: run[i].at, seq: s.seq, fn: run[i].fn}
		if !bulk {
			s.heap.siftUp(n + i) // reads only the prefix already placed
		}
	}
	if bulk {
		s.heap.heapify()
	}
	if s.waker != nil {
		for range run {
			s.waker()
		}
	}
}

// After schedules fn to run delay seconds from now.
func (s *Scheduler) After(delay float64, fn func(now float64)) {
	if delay < 0 {
		delay = 0
	}
	s.At(s.now+delay, fn)
}

// AdvanceTo moves virtual time to t, executing every due event, eager and
// quiet, in (time, seq) order. Events may schedule further events,
// including at times ≤ t.
func (s *Scheduler) AdvanceTo(t float64) {
	for {
		if len(s.quiet) > 0 && s.quietFirst(t) {
			s.runQuiet()
			continue
		}
		if len(s.heap) == 0 || s.heap[0].at > t {
			break
		}
		e := s.pop()
		s.now = e.at
		s.executed++
		e.fn(s.now)
	}
	if t > s.now {
		s.now = t
	}
}

// Pending returns the number of queued events of both kinds.
func (s *Scheduler) Pending() int { return len(s.heap) + len(s.quiet) }

// NextTime reports the virtual time of the earliest queued event of either
// kind; ok is false when the queue is empty.
func (s *Scheduler) NextTime() (t float64, ok bool) {
	t, ok = s.NextEagerTime()
	if len(s.quiet) > 0 && (!ok || s.quiet[0].at < t) {
		return s.quiet[0].at, true
	}
	return t, ok
}

// NextEagerTime reports the virtual time of the earliest queued eager
// event; ok is false when none is queued. Quiet events do not count: it is
// the part of NextTime an owner that sleeps between eager events must
// wake for.
func (s *Scheduler) NextEagerTime() (t float64, ok bool) {
	if len(s.heap) == 0 {
		return 0, false
	}
	return s.heap[0].at, true
}

// Executed returns the number of events of both kinds this scheduler has
// run so far — the raw count behind the fleet engine's events/sec figure.
func (s *Scheduler) Executed() int64 { return s.executed }

// ExecutedQuiet returns how many of the events Executed counts were quiet.
func (s *Scheduler) ExecutedQuiet() int64 { return s.quietRun }

// SetWaker registers fn to be invoked on every At (including clamped
// past-time posts), never on Quiet. The fleet Engine uses it to learn that
// a callback executing on the shared timeline scheduled fresh device-local
// work, so only dirtied devices need their queue keys recomputed.
func (s *Scheduler) SetWaker(fn func()) { s.waker = fn }
