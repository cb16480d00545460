package netsim

import (
	"math"

	"shoggoth/internal/sim"
)

// SharedMedium models a cell-tower uplink shared by many devices: the
// tower's aggregate rate (a Trace, so it may vary over time) is split
// evenly across every in-flight transfer — processor sharing, the standard
// fluid model of a fair cellular scheduler. Each join or completion
// re-prices everyone else's completion time, which is why the medium is an
// event-queue feature: it posts its own wake events to the fleet engine's
// shared scheduler and integrates transfer progress piecewise between
// them.
//
// Determinism: every method must be called from the engine's serial phase
// (the fleet engine guarantees joins arrive in device-index order within a
// merge), so transfer order — and therefore completion order and the
// delivery seq numbers — is identical at any worker count. The medium is
// not safe for concurrent use.
type SharedMedium struct {
	trace Trace
	sched *sim.Scheduler

	now    float64
	active []*sharedTransfer
	wakeAt float64 // earliest scheduled wake; +Inf when none

	// Contention telemetry (monotone counters; not part of Results).
	completed     int
	maxConcurrent int
}

type sharedTransfer struct {
	remaining float64 // bits still to move
	latency   float64 // propagation latency, added after the last bit
	deliver   func(now float64)
}

// completionSlack absorbs float rounding when a drain lands a transfer
// within a hair of zero bits.
const completionSlack = 1e-6

// NewSharedMedium creates a medium over the tower's aggregate uplink
// trace, posting wake and delivery events to sched.
func NewSharedMedium(tr Trace, sched *sim.Scheduler) *SharedMedium {
	return &SharedMedium{trace: tr, sched: sched, wakeAt: math.Inf(1)}
}

// Active returns the number of in-flight transfers.
func (m *SharedMedium) Active() int { return len(m.active) }

// Completed returns how many transfers have finished.
func (m *SharedMedium) Completed() int { return m.completed }

// MaxConcurrent returns the peak number of simultaneous transfers — the
// contention high-water mark.
func (m *SharedMedium) MaxConcurrent() int { return m.maxConcurrent }

// Join starts a transfer of the given size at virtual time now; deliver
// runs on the shared scheduler once the last bit lands plus the one-way
// latency at join time. Every other in-flight transfer slows down
// immediately: the aggregate rate now splits one more way.
func (m *SharedMedium) Join(bytes int, now float64, deliver func(now float64)) {
	m.advance(now)
	m.active = append(m.active, &sharedTransfer{
		remaining: float64(bytes) * 8,
		latency:   m.trace.LatencyAt(now),
		deliver:   deliver,
	})
	if len(m.active) > m.maxConcurrent {
		m.maxConcurrent = len(m.active)
	}
	m.reschedule()
}

// onWake is the medium's scheduled event: integrate up to now (completing
// whatever finished) and re-arm for the next boundary. Stale wakes — ones
// scheduled before a later join changed the arithmetic — are harmless:
// advance is idempotent over already-integrated time.
func (m *SharedMedium) onWake(now float64) {
	m.wakeAt = math.Inf(1)
	m.advance(now)
	m.reschedule()
}

// advance integrates transfer progress from m.now to target, segment by
// piecewise-constant segment (trace rate changes and completions both end
// a segment). Completions deliver in join order when simultaneous.
func (m *SharedMedium) advance(target float64) {
	for i := 0; i < maxTraceSegments && m.now < target && len(m.active) > 0; i++ {
		perShare := m.trace.RateAt(m.now) / float64(len(m.active))
		segEnd := math.Min(target, m.trace.NextChange(m.now))
		if perShare > 0 {
			if tDone := m.now + m.minRemaining()/perShare; tDone <= m.now {
				m.finishStalled(perShare)
				continue
			} else if tDone <= segEnd {
				m.drain(tDone-m.now, perShare)
				m.complete(tDone)
				m.now = tDone
				continue
			}
		}
		m.drain(segEnd-m.now, perShare)
		m.now = segEnd
	}
	if m.now < target {
		m.now = target
	}
}

// finishStalled completes, at m.now, every transfer whose remaining bits
// would drain at perShare in less than one ulp of m.now: m.now plus its
// drain time rounds back to m.now, so no later instant exists at which to
// integrate it, and a wake armed for it would fire at m.now forever. The
// caller has seen that the smallest transfer stalls, so at least one
// completes.
func (m *SharedMedium) finishStalled(perShare float64) {
	for _, t := range m.active {
		if m.now+t.remaining/perShare <= m.now {
			t.remaining = 0
		}
	}
	m.complete(m.now)
}

// minRemaining returns the smallest outstanding bit count.
func (m *SharedMedium) minRemaining() float64 {
	min := math.Inf(1)
	for _, t := range m.active {
		if t.remaining < min {
			min = t.remaining
		}
	}
	return min
}

// drain moves dt seconds of per-share bandwidth out of every transfer.
func (m *SharedMedium) drain(dt, perShare float64) {
	if dt <= 0 || perShare <= 0 {
		return
	}
	bits := dt * perShare
	for _, t := range m.active {
		t.remaining -= bits
	}
}

// complete removes every finished transfer, scheduling its delivery at
// now plus its join-time latency.
func (m *SharedMedium) complete(now float64) {
	alive := m.active[:0]
	for _, t := range m.active {
		if t.remaining <= completionSlack {
			m.completed++
			m.sched.At(now+t.latency, t.deliver)
			continue
		}
		alive = append(alive, t)
	}
	m.active = alive
}

// reschedule arms the next wake: the earliest of the next trace-rate
// boundary and the earliest predicted completion at current rates. A
// later, staler wake left in the queue is fine — it lands after this one
// and advances over already-integrated time.
//
// A transfer predicted to complete at m.now itself completes here
// (finishStalled) instead of arming a wake that could never move past now.
func (m *SharedMedium) reschedule() {
	for len(m.active) > 0 {
		wake := m.trace.NextChange(m.now)
		if perShare := m.trace.RateAt(m.now) / float64(len(m.active)); perShare > 0 {
			tDone := m.now + m.minRemaining()/perShare
			if tDone <= m.now {
				m.finishStalled(perShare)
				continue
			}
			if tDone < wake {
				wake = tDone
			}
		}
		if math.IsInf(wake, 1) || wake >= m.wakeAt {
			return
		}
		m.wakeAt = wake
		m.sched.At(wake, m.onWake)
		return
	}
}
