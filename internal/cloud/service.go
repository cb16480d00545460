package cloud

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"shoggoth/internal/detect"
	"shoggoth/internal/metrics"
	"shoggoth/internal/sim"
	"shoggoth/internal/video"
)

// ServiceConfig shapes the shared labeling engine (one replica of a tier).
type ServiceConfig struct {
	// QueueCap bounds the number of label batches outstanding (in service
	// plus waiting) at any virtual instant; a batch arriving at a full
	// queue is dropped (no labels, no rate command). 0 means unbounded.
	QueueCap int `json:"queue_cap,omitempty"`
	// Policy names the scheduling policy deciding service order across
	// devices (see RegisterPolicy). Empty means PolicyFIFO, the frozen
	// default whose 1-worker configuration is bit-identical to the
	// pre-engine cloud.
	Policy string `json:"policy,omitempty"`
	// Workers is the teacher pipeline pool size: how many batches the cloud
	// labels concurrently (in virtual time, each on its own busyUntil
	// horizon). 0 means 1.
	Workers int `json:"workers,omitempty"`
	// Coalesce enables cross-device teacher batching on the deferred
	// dispatch path: when a worker frees, up to Coalesce compatible pending
	// batches (same per-frame teacher latency) are fused into ONE priced
	// teacher forward — the first batch pays full per-frame latency, every
	// piggybacked frame pays coalesceMarginal of it. Values < 2 disable
	// coalescing (the frozen default). Coalescing forces the deferred path
	// even under an arrival-order policy, so it needs Bind; the real-time
	// Admit path never coalesces (arrival order is fixed by the network).
	Coalesce int `json:"coalesce,omitempty"`
}

// resolved returns c with its zero-valued knobs replaced by what a replica
// runs with: FIFO and one worker.
func (c ServiceConfig) resolved() ServiceConfig {
	if c.Policy == "" {
		c.Policy = PolicyFIFO
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	return c
}

// coalesceMarginal is the modeled marginal cost of a piggybacked frame in a
// coalesced teacher forward: batching amortises weight loading and kernel
// launch, leaving ~15% of the per-frame latency.
const coalesceMarginal = 0.15

// QueueStats is a snapshot of labeling-queue behaviour, either for the
// whole service or for one device. Delays are the time a batch waited
// between arrival and the teacher starting on it.
type QueueStats struct {
	// Batches is the number of label batches admitted and served.
	Batches int `json:"batches"`
	// DroppedBatches counts batches rejected at a full queue.
	DroppedBatches int `json:"dropped_batches"`
	// QueueDelayMeanSec is the mean queueing delay of served batches.
	QueueDelayMeanSec float64 `json:"queue_delay_mean_sec"`
	// QueueDelayMaxSec is the worst queueing delay of any served batch.
	QueueDelayMaxSec float64 `json:"queue_delay_max_sec"`
	// BusySeconds is total teacher inference time consumed.
	BusySeconds float64 `json:"busy_seconds"`
}

type queueAccum struct {
	batches  int
	dropped  int
	delay    metrics.Running
	delayMax float64
	busySec  float64
}

func (a *queueAccum) admit(delay, service float64) {
	a.batches++
	a.delay.Add(delay)
	if delay > a.delayMax {
		a.delayMax = delay
	}
	a.busySec += service
}

// merge folds another accumulator into a. Merging replica accumulators in
// replica-index order is deterministic, and merging one accumulator into a
// zero value reproduces its snapshot bit for bit (sums gain 0, the mean
// performs the identical division).
func (a *queueAccum) merge(o queueAccum) {
	a.batches += o.batches
	a.dropped += o.dropped
	a.delay.Merge(o.delay)
	if o.delayMax > a.delayMax {
		a.delayMax = o.delayMax
	}
	a.busySec += o.busySec
}

func (a *queueAccum) snapshot() QueueStats {
	return QueueStats{
		Batches:           a.batches,
		DroppedBatches:    a.dropped,
		QueueDelayMeanSec: a.delay.Mean(),
		QueueDelayMaxSec:  a.delayMax,
		BusySeconds:       a.busySec,
	}
}

// pendingBatch is one admitted-but-unassigned batch on the deferred
// dispatch path. It is held by value: in its device's queue while it waits,
// then in the dispatch scratch until its callback has run. An executed
// device's batch holds its frames, which its labeling reads at dispatch; an
// analytic device's holds the φs its labeling computed at admission, and
// no frame.
type pendingBatch struct {
	dev     *ServiceDevice
	n       int // the batch's frame count
	frames  []*video.Frame
	phis    []float64
	arrival float64
	seq     int
	// extra is additional one-off service time the batch carries (a tier's
	// domain cold-start penalty); 0 on every pre-tier path.
	extra float64
	cb    func(BatchResult)
}

// service is one replica of a Tier: the cloud scheduling engine behind it.
// A configurable pool of teacher workers (ServiceConfig.Workers, each with
// its own busyUntil horizon) serves batches in the order a pluggable Policy
// decides, behind a finite admission queue (QueueCap); contention shows up
// as queueing delay, and overload as drops. A device reaches a replica only
// through the tier, which mints its registration here (registerRouted) the
// first time it routes one of the device's batches this way.
//
// Two driving modes share the engine:
//
//   - Virtual time (simulation): TierDevice.Enqueue from one event loop.
//     Arrival-order policies (Policy.Immediate) are scheduled synchronously
//     at admission; reordering policies queue and dispatch through the
//     timeline Tier.Bind attached. The virtual-time path must be driven
//     from a single event loop.
//   - Real time (internal/rpc): TierDevice.Admit and
//     ServiceDevice.LabelFrames split admission (engine state, internally
//     locked) from labeling (caller-serialised per device), so a live HTTP
//     server shares the exact admission, horizon and statistics model while
//     unrelated devices label concurrently.
type service struct {
	cfg       ServiceConfig
	policy    Policy
	immediate bool

	// mu guards the scheduling state below (horizons, outstanding, waiting
	// batches, accumulators). The virtual-time path is
	// single-threaded and pays only an uncontended lock; the rpc path
	// genuinely contends.
	mu sync.Mutex
	// workers holds each teacher worker's busyUntil horizon. A batch is
	// assigned to the free worker with the smallest horizon, ties broken by
	// the lowest worker index — part of the determinism contract. free
	// holds the worker indices as a binary min-heap on that order, so the
	// free worker is its root (see freeWorkerLocked).
	workers []float64
	free    []int
	// outstanding is a min-heap of the completion times of assigned batches
	// still in the system; occupancyLocked pops the ones that have completed
	// as time advances. Its length plus waiting is the queue occupancy
	// QueueCap bounds.
	outstanding doneHeap
	// occNow is the latest time occupancy has been asked at (see
	// occupancyLocked).
	occNow float64
	// waiting counts the admitted batches not yet on a worker: the sum of
	// the device queues' lengths.
	waiting int
	// heads holds the devices with a waiting batch, as a binary min-heap in
	// the policy's order over their head-of-line batches (see
	// rekeyLocked); each device records its position in heapIdx.
	heads []*ServiceDevice
	seq   int
	agg   queueAccum
	// coalescedForwards counts multi-batch teacher forwards; coalescedBatches
	// counts the batches that rode in them (primaries included).
	coalescedForwards int
	coalescedBatches  int

	// sched drives deferred dispatch for reordering policies (Tier.Bind). A
	// Timeline rather than a concrete scheduler so the fleet engine can
	// substitute its shared event queue.
	sched       sim.Timeline
	dispatchFn  func(now float64) // s.onDispatch, bound once: a method value allocates where it is taken
	dispatchSet bool
	dispatchAt  float64

	// Deferred-dispatch scratch, grown once and reused so a dispatch in
	// steady state allocates nothing of its own: the two heads a heap
	// comparison offers the policy, the coalesced group with its prices, and
	// the batches assigned by one dispatch event.
	pair  [2]Pending
	group []pendingBatch
	costs []float64
	ready []assigned
	// phis holds the φs of the analytic batch the arrival-order path is
	// delivering. It labels and delivers one batch at a time, so a batch's
	// φs are read (BatchResult.Phis is borrowed) before the next batch's
	// overwrite them.
	phis []float64
	// phiFree holds the emptied φ slices of delivered analytic batches on
	// the deferred path, for the next admitted ones. Like the rest of the
	// deferred scratch it is touched only from the one virtual-time event
	// loop, so the lock does not guard it.
	phiFree [][]float64
}

// assigned is one batch a dispatch event put on a worker, held until the
// engine lock is released and its callback may run.
type assigned struct {
	b   pendingBatch
	adm Admission
}

// doneHeap is a binary min-heap of batch completion times.
type doneHeap []float64

func (h *doneHeap) push(done float64) {
	//shoggoth:allow hotalloc -- grows to the occupancy high-water mark (at most QueueCap when bounded), then reused
	*h = append(*h, done)
	q := *h
	j := len(q) - 1
	for j > 0 {
		parent := (j - 1) / 2
		if q[parent] <= done {
			break
		}
		q[j] = q[parent]
		j = parent
	}
	q[j] = done
}

// popMin removes the earliest completion time.
func (h *doneHeap) popMin() {
	q := *h
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	*h = q
	j := 0
	for {
		child := 2*j + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q[r] < q[child] {
			child = r
		}
		if q[child] >= last {
			break
		}
		q[j] = q[child]
		j = child
	}
	if n > 0 {
		q[j] = last
	}
}

// NewService builds a one-replica tier, which hands every batch to its
// replica unchanged. It stays only for benchmark/units.go, which uses the
// result as a Backend; ROADMAP 2(d) moves that call to NewTier and deletes
// this one.
func NewService(cfg ServiceConfig) *Tier { return NewTier(TierConfig{Service: cfg}) }

// newService creates an empty replica. It panics on an unregistered policy
// name — validate user input with TierConfig.Validate first.
func newService(cfg ServiceConfig) *service {
	cfg = cfg.resolved()
	policy, err := NewPolicy(cfg.Policy)
	if err != nil {
		panic(err)
	}
	s := &service{
		cfg:    cfg,
		policy: policy,
		// Coalescing fuses batches when a worker frees, so it needs the
		// deferred dispatch path even under an arrival-order policy.
		immediate: policy.Immediate() && cfg.Coalesce < 2,
		workers:   make([]float64, cfg.Workers),
		free:      make([]int, cfg.Workers),
	}
	for w := range s.free { // equal horizons: index order is a heap
		s.free[w] = w
	}
	s.dispatchFn = s.onDispatch
	return s
}

// ServiceDevice is a tier device's registration on one replica: its own
// labeler (φ continuity is per device and replica), its queue and its
// statistics there, sharing the replica's teacher workers with every other
// device routed to it. TierDevice.Admit hands it to the live server, which
// labels on it; LabelFrames is all it exports.
type ServiceDevice struct {
	svc      *service
	id       string
	labeler  *Labeler
	acc      queueAccum
	weight   float64
	analytic bool    // price labeling instead of executing it (events fidelity)
	lastPhi  float64 // most recent batch mean φ — the drift signal policies rank by
	// routed is the tier device this registration serves: a labeled batch is
	// recorded on it before its callback runs.
	routed *TierDevice
	// queue[qHead:] holds the device's waiting batches in arrival order;
	// heapIdx is the device's position in its service's heads, -1 while
	// nothing waits.
	queue   []pendingBatch
	qHead   int
	heapIdx int
}

// registerRouted mints td's registration on this replica, the first time
// the tier routes one of its batches here, with the fair-queueing weight td
// registered with. The tier has rejected duplicate ids already and mints a
// registration on a replica once, and nothing of the replica's state
// changes until a batch arrives, so no lock or lookup guards it.
func (s *service) registerRouted(td *TierDevice) *ServiceDevice {
	return &ServiceDevice{svc: s, id: td.id, labeler: NewLabeler(td.teacher, td.labelerCfg), weight: td.weight, analytic: td.analytic, routed: td, heapIdx: -1}
}

// AtCapacity reports whether a batch arriving at time now would be dropped
// at the admission bound — an advisory pre-check for Tier.AtCapacity only:
// admission re-checks authoritatively.
func (s *service) AtCapacity(now float64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fullLocked(now)
}

// RetryAfterSec estimates, at time now, how long until the admission queue
// frees a slot, accounting for the whole worker pool's drain rate: the
// earliest future completion among assigned batches, or — when the queue is
// held full by still-unassigned pending batches — the earliest completion a
// pool-drain replay of the pending queue produces. With Workers > 1 the
// pending batches drain in parallel across horizons, so the estimate is the
// pool's, not a serial queue's. 0 means nothing occupies the queue. The rpc
// server turns this into the Retry-After header of a 429.
func (s *service) RetryAfterSec(now float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	earliest := math.Inf(1)
	s.occupancyLocked(now) // drops completed batches, so the heap's root is the next completion
	if len(s.outstanding) > 0 {
		earliest = s.outstanding[0]
	}
	if s.waiting > 0 {
		// Replay the waiting batches over a copy of the worker horizons in
		// arrival order (a conservative estimate: reordering policies and
		// coalescing can only finish a first batch sooner). The first
		// simulated completion frees a queue slot.
		horizons := make([]float64, len(s.workers))
		copy(horizons, s.workers)
		for _, b := range s.waitingBySeqLocked() {
			w := 0
			for i := 1; i < len(horizons); i++ {
				if horizons[i] < horizons[w] {
					w = i
				}
			}
			start := math.Max(now, horizons[w])
			service := float64(b.n)*b.dev.labeler.Config.TeacherLatencySec + b.extra
			done := start + service
			horizons[w] = done
			if done > now && done < earliest {
				earliest = done
			}
		}
	}
	if math.IsInf(earliest, 1) {
		return 0
	}
	return earliest - now
}

// BatchResult is the outcome of one uploaded sample batch.
type BatchResult struct {
	// Labels holds one teacher label set per admitted frame (nil if the
	// batch was dropped).
	Labels [][]detect.TeacherLabel
	// Phis are the per-frame φ label-change losses, in frame order. They are
	// borrowed: an analytic batch's are the service's scratch, overwritten
	// by the next batch it labels, so they are valid only while the batch
	// callback runs, and a callback that keeps them copies them.
	Phis []float64
	// PhiMean is the mean φ over the batch.
	PhiMean float64
	// Start is when the teacher began on the batch (arrival plus queueing).
	Start float64
	// Done is when labeling finished: Start plus teacher service time.
	Done float64
	// QueueDelaySec is Start minus arrival — the contention signal.
	QueueDelaySec float64
	// Dropped reports the batch was rejected at a full queue.
	Dropped bool
}

// Admission is the scheduling outcome of one admitted batch: when a worker
// starts on it, when it completes, and what it waited.
type Admission struct {
	Start         float64
	Done          float64
	QueueDelaySec float64
	ServiceSec    float64
}

// occupancyLocked returns the number of batches in the system — assigned and
// not yet complete, plus pending — dropping completed batches from the heap
// on the way, so a call costs O(1) plus O(log n) per batch that completed
// since the last one.
//
// Occupancy is evaluated at the service's high-water now: the latest time
// any caller has asked at. A completed batch has left the system for good,
// and the heap cannot bring it back. In virtual time now never decreases, so
// this is the caller's now. The real-time path reads its clock before it
// takes the lock, so two requests can arrive here out of clock order; the
// later-clocked one has then already been answered, and answering the other
// at that same instant keeps admission a function of the order of arrival at
// the lock. Worker horizons and Admission.Start keep using the caller's own
// now.
//
//shoggoth:hotpath
func (s *service) occupancyLocked(now float64) int {
	if now > s.occNow {
		s.occNow = now
	}
	for len(s.outstanding) > 0 && s.outstanding[0] <= s.occNow {
		s.outstanding.popMin()
	}
	return len(s.outstanding) + s.waiting
}

// fullLocked reports whether a batch arriving at now finds the admission
// queue at its bound.
func (s *service) fullLocked(now float64) bool {
	occ := s.occupancyLocked(now) // also when unbounded: it is what drains the heap
	return s.cfg.QueueCap > 0 && occ >= s.cfg.QueueCap
}

// freeWorkerLocked returns the worker with the smallest busyUntil horizon,
// ties broken by the lowest index (the deterministic tie-break rule): the
// root of the free heap.
func (s *service) freeWorkerLocked() int { return s.free[0] }

// occupyFreeWorkerLocked moves the free worker's horizon to done, no
// earlier than it was, and sifts the worker down the free heap. Only the
// free worker is ever given a batch, so this is the heap's one update.
func (s *service) occupyFreeWorkerLocked(done float64) {
	h, at := s.free, s.workers
	w := h[0]
	at[w] = done
	j := 0
	for {
		c := 2*j + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && (at[h[r]] < at[h[c]] || at[h[r]] == at[h[c]] && h[r] < h[c]) {
			c = r
		}
		if !(at[h[c]] < done || at[h[c]] == done && h[c] < w) {
			break
		}
		h[j] = h[c]
		j = c
	}
	h[j] = w
}

// assignLocked schedules one batch of n frames from d onto the best worker,
// starting no earlier than now, and records the queue statistics. arrival
// is when the batch entered the system (equals now on the eager path);
// extra is one-off additional service time (a tier cold-start penalty —
// only added when nonzero, so extra-free paths keep the exact float op
// sequence of the pre-tier cloud).
func (s *service) assignLocked(d *ServiceDevice, n int, now, arrival, extra float64) Admission {
	w := s.freeWorkerLocked()
	start := math.Max(now, s.workers[w])
	// Service time is summed per frame, exactly as the labeling loop
	// accumulates it — the float64 op order is part of the bit-identity
	// contract with the pre-engine cloud.
	var service float64
	for i := 0; i < n; i++ {
		service += d.labeler.Config.TeacherLatencySec
	}
	if extra != 0 {
		service += extra
	}
	done := start + service
	s.occupyFreeWorkerLocked(done)
	s.outstanding.push(done)

	delay := start - arrival
	d.acc.admit(delay, service)
	s.rekeyLocked(d) // d may have a next batch waiting, keyed on its busy time before this one
	s.agg.admit(delay, service)
	return Admission{Start: start, Done: done, QueueDelaySec: delay, ServiceSec: service}
}

// admit runs admission control and worker assignment for a batch of nFrames
// arriving at time now, in arrival order (the policy is not consulted — the
// real-time path, where the network already fixed the order, and the
// arrival-order half of enqueue). extra is one-off extra service time (a
// tier cold-start penalty). ok is false when the queue is full; the drop is
// counted. admit is safe for concurrent use; the real-time caller labels
// the admitted frames with LabelFrames under its own per-device
// serialisation.
func (d *ServiceDevice) admit(nFrames int, now, extra float64) (Admission, bool) {
	s := d.svc
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fullLocked(now) {
		d.acc.dropped++
		s.agg.dropped++
		return Admission{}, false
	}
	return s.assignLocked(d, nFrames, now, now, extra), true
}

// LabelFrames runs the teacher over a batch, returning the label sets, the
// per-frame φ losses and their mean, and updating the device's drift
// signal. It does not touch engine scheduling state; the caller serialises
// calls per device (the virtual-time event loop, or the rpc server's
// per-device lock) so the labeler's φ continuity sees frames in order.
func (d *ServiceDevice) LabelFrames(frames []*video.Frame) ([][]detect.TeacherLabel, []float64, float64) {
	var phis []float64 // fresh: devices label concurrently on the real-time path
	return d.label(frames, &phis)
}

// label is LabelFrames with an analytic device's φs written over *scratch,
// which it grows as needed. The virtual-time paths pass the service's phis.
func (d *ServiceDevice) label(frames []*video.Frame, scratch *[]float64) ([][]detect.TeacherLabel, []float64, float64) {
	if d.analytic {
		// Events-fidelity pricing: the batch was queued, assigned a worker
		// horizon and charged its full (or coalesced-rider) service time by
		// the scheduling layer above — but the teacher itself never runs.
		// Labels are nil by contract; φ is the deterministic drift model.
		*scratch = d.labeler.PhiAnalytic((*scratch)[:0], frames)
		return nil, *scratch, d.settle(*scratch)
	}
	labels := make([][]detect.TeacherLabel, len(frames))
	phis := make([]float64, len(frames))
	var phi metrics.Running
	for i, f := range frames {
		res := d.labeler.LabelFrame(f)
		labels[i] = res.Labels
		phi.Add(res.Phi)
		phis[i] = res.Phi
	}
	mean := phi.Mean()
	d.lastPhi = mean
	return labels, phis, mean
}

// settle returns the mean of an analytic batch's φs and makes it the
// device's drift signal, as labeling the batch does.
func (d *ServiceDevice) settle(phis []float64) float64 {
	var phi metrics.Running
	for _, p := range phis {
		phi.Add(p)
	}
	d.lastPhi = phi.Mean()
	return d.lastPhi
}

// enqueue admits one uploaded batch at virtual time now, carrying one-off
// extra service time (a tier cold-start penalty), and arranges for cb to be
// invoked exactly once with the labeled result — synchronously under an
// arrival-order policy (the FIFO fast path), or from a deferred dispatch
// event once a worker frees and the policy selects the batch. It returns
// false (and never calls cb) when the batch is dropped at a full queue.
// Reordering policies require a bound timeline (Tier.Bind).
func (d *ServiceDevice) enqueue(frames []*video.Frame, now, extra float64, cb func(BatchResult)) bool {
	s := d.svc
	if s.immediate {
		// Arrival order: admission, worker assignment and labeling in one
		// call, the callback before Enqueue returns.
		adm, ok := d.admit(len(frames), now, extra)
		if !ok {
			return false
		}
		labels, phis, phiMean := d.label(frames, &s.phis)
		d.deliver(cb, now, BatchResult{
			Labels:        labels,
			Phis:          phis,
			PhiMean:       phiMean,
			Start:         adm.Start,
			Done:          adm.Done,
			QueueDelaySec: adm.QueueDelaySec,
		})
		return true
	}
	if s.sched == nil {
		panic(fmt.Sprintf("cloud: policy %q (coalesce %d) needs a scheduler; call Tier.Bind first", s.cfg.Policy, s.cfg.Coalesce))
	}
	s.mu.Lock()
	if s.fullLocked(now) {
		d.acc.dropped++
		s.agg.dropped++
		s.mu.Unlock()
		return false
	}
	s.seq++
	b := pendingBatch{dev: d, n: len(frames), arrival: now, seq: s.seq, extra: extra, cb: cb}
	if d.analytic {
		// The device's queue is served in arrival order, so its φ chain
		// sees the same frames in the same order now as at dispatch, and
		// the batch need not keep its frames. lastPhi, which a policy ranks
		// by, still moves at dispatch (settle).
		b.phis = d.labeler.PhiAnalytic(s.takePhis(), frames)
	} else {
		b.frames = frames
	}
	d.push(b)
	s.waiting++
	s.rekeyLocked(d)
	s.ensureDispatchLocked(now)
	s.mu.Unlock()
	return true
}

// ensureDispatchLocked schedules the next dispatch event at the earliest
// time a worker frees (no earlier than now). Horizons only grow, so an
// already-scheduled earlier-or-equal event covers this request.
func (s *service) ensureDispatchLocked(now float64) {
	if s.waiting == 0 {
		return
	}
	t := s.workers[s.freeWorkerLocked()]
	if t < now {
		t = now
	}
	if s.dispatchSet && s.dispatchAt <= t {
		return
	}
	s.dispatchSet = true
	s.dispatchAt = t
	s.sched.At(t, s.dispatchFn)
}

// onDispatch assigns every free worker a waiting batch in policy order —
// or, with coalescing enabled, a policy-ordered GROUP of compatible batches
// fused into one priced teacher forward — then labels the assigned batches
// and delivers their callbacks in assignment order. Selection and labeling
// are split so no callback runs while the engine lock is held.
func (s *service) onDispatch(now float64) {
	s.mu.Lock()
	s.ready = s.dispatchLocked(now, s.ready[:0])
	ready := s.ready // only dispatch events touch it, and the event loop runs one at a time
	s.mu.Unlock()

	for k := range ready {
		a := &ready[k]
		d := a.b.dev
		var labels [][]detect.TeacherLabel
		phis, phiMean := a.b.phis, 0.0
		if d.analytic {
			phiMean = d.settle(phis)
		} else {
			labels, phis, phiMean = d.label(a.b.frames, &s.phis)
		}
		// Labeling moved d's φ, which a policy may rank its next batch by.
		s.mu.Lock()
		s.rekeyLocked(d)
		s.mu.Unlock()
		d.deliver(a.b.cb, a.b.arrival, BatchResult{
			Labels:        labels,
			Phis:          phis,
			PhiMean:       phiMean,
			Start:         a.adm.Start,
			Done:          a.adm.Done,
			QueueDelaySec: a.adm.QueueDelaySec,
		})
		if a.b.phis != nil {
			s.phiFree = append(s.phiFree, a.b.phis[:0])
		}
		a.b = pendingBatch{} // the scratch must not pin a delivered batch's frames
	}
}

// takePhis returns an empty φ slice from phiFree, or nil when none is left
// (PhiAnalytic grows it).
func (s *service) takePhis() []float64 {
	n := len(s.phiFree) - 1
	if n < 0 {
		return nil
	}
	p := s.phiFree[n]
	s.phiFree[n] = nil
	s.phiFree = s.phiFree[:n]
	return p
}

// deliver hands a labeled batch that arrived at arrival to its callback,
// recording it on the tier first.
func (d *ServiceDevice) deliver(cb func(BatchResult), arrival float64, res BatchResult) {
	d.routed.tier.record(d.routed, arrival, res.Done)
	cb(res)
}

// dispatchLocked is the scheduling half of a dispatch event: selection and
// worker assignment for every free worker, appended to ready in assignment
// order, and the next dispatch event armed. It allocates nothing in steady
// state; the labeling half (onDispatch) produces the label sets and φs that
// escape to the batch callbacks.
//
//shoggoth:hotpath
func (s *service) dispatchLocked(now float64, ready []assigned) []assigned {
	s.dispatchSet = false
	for s.waiting > 0 && s.workers[s.freeWorkerLocked()] <= now {
		if s.cfg.Coalesce >= 2 {
			ready = s.assignGroupLocked(ready, s.selectGroupLocked(), now)
			continue
		}
		b := s.popLocked()
		//shoggoth:allow hotalloc -- grows to the most batches one dispatch event has assigned, then reused
		ready = append(ready, assigned{b: b, adm: s.assignLocked(b.dev, b.n, now, b.arrival, b.extra)})
	}
	s.ensureDispatchLocked(now)
	return ready
}

// selectGroupLocked pulls up to Coalesce waiting batches for one fused
// teacher forward, each the policy's pick in turn (so the primary — and
// every rider — is still the policy's pick among eligible heads). A device
// whose batch joined the group is offered again on its next batch, at the
// busy time it had before the group. Selection stops early at an
// incompatible batch: riders must share the primary's per-frame teacher
// latency, or the fused forward's pricing would mix models. The returned
// group is service scratch, valid until the next call.
//
//shoggoth:hotpath
func (s *service) selectGroupLocked() []pendingBatch {
	if cap(s.group) < s.cfg.Coalesce {
		s.group = make([]pendingBatch, 0, s.cfg.Coalesce)
		s.costs = make([]float64, s.cfg.Coalesce)
	}
	group := s.group[:1]
	group[0] = s.popLocked()
	lat := group[0].dev.labeler.Config.TeacherLatencySec
	for len(group) < s.cfg.Coalesce && s.waiting > 0 {
		if s.heads[0].labeler.Config.TeacherLatencySec != lat {
			break
		}
		group = group[:len(group)+1]
		group[len(group)-1] = s.popLocked()
	}
	return group
}

// assignGroupLocked prices one fused teacher forward on the soonest-free
// worker: the primary batch's frames at full per-frame latency (the exact
// per-frame summation loop of the solo path), each rider's frames at the
// marginal fraction, summed in selection order — the float op order is part
// of the determinism contract. All batches in the group share one start and
// one completion; each batch's own contribution is what lands in its
// device's busy-time accumulator, keeping per-device stats additive (and
// meaning WFQ's attained-service counter advances less for piggybacked
// work — riders are cheap by construction). The assignments are appended to
// ready in selection order.
func (s *service) assignGroupLocked(ready []assigned, group []pendingBatch, now float64) []assigned {
	w := s.freeWorkerLocked()
	start := math.Max(now, s.workers[w])
	costs := s.costs[:len(group)]
	var total float64
	for k := range group {
		b := &group[k]
		lat := b.dev.labeler.Config.TeacherLatencySec
		if k > 0 {
			lat *= coalesceMarginal
		}
		var c float64
		for i := 0; i < b.n; i++ {
			c += lat
		}
		if b.extra != 0 {
			c += b.extra
		}
		costs[k] = c
		total += c
	}
	done := start + total
	s.occupyFreeWorkerLocked(done)
	for k := range group {
		b := &group[k]
		s.outstanding.push(done)
		delay := start - b.arrival
		b.dev.acc.admit(delay, costs[k])
		s.rekeyLocked(b.dev)
		s.agg.admit(delay, costs[k])
		//shoggoth:allow hotalloc -- grows to the most batches one dispatch event has assigned, then reused
		ready = append(ready, assigned{b: *b, adm: Admission{Start: start, Done: done, QueueDelaySec: delay, ServiceSec: costs[k]}})
		*b = pendingBatch{}
	}
	if len(group) > 1 {
		s.coalescedForwards++
		s.coalescedBatches += len(group)
	}
	return ready
}

// push appends b to the device's queue, first moving the waiting batches
// to the front when the backing array is full, so a device that never
// drains reuses its queue's memory instead of growing it.
func (d *ServiceDevice) push(b pendingBatch) {
	if d.qHead > 0 && len(d.queue) == cap(d.queue) {
		n := copy(d.queue, d.queue[d.qHead:])
		clear(d.queue[n:])
		d.queue, d.qHead = d.queue[:n], 0
	}
	d.queue = append(d.queue, b)
}

// popLocked removes and returns the policy's pick: the head-of-line batch
// of the device at the root of heads. The device is re-keyed on its next
// batch, or leaves the heap when none waits.
//
//shoggoth:hotpath
func (s *service) popLocked() pendingBatch {
	d := s.heads[0]
	b := d.queue[d.qHead]
	d.queue[d.qHead] = pendingBatch{}
	if d.qHead++; d.qHead == len(d.queue) {
		d.queue, d.qHead = d.queue[:0], 0
	}
	s.waiting--
	s.rekeyLocked(d)
	return b
}

// waitingBySeqLocked returns every waiting batch in arrival order. It is
// the slow path of RetryAfterSec's replay; no pick uses it.
func (s *service) waitingBySeqLocked() []*pendingBatch {
	all := make([]*pendingBatch, 0, s.waiting)
	for _, d := range s.heads {
		for i := d.qHead; i < len(d.queue); i++ {
			all = append(all, &d.queue[i])
		}
	}
	slices.SortFunc(all, func(a, b *pendingBatch) int { return cmp.Compare(a.seq, b.seq) })
	return all
}

// headLocked is the policy's view of the device's head-of-line batch.
func (d *ServiceDevice) headLocked() Pending {
	b := &d.queue[d.qHead]
	return Pending{
		Device:    d.id,
		Arrival:   b.arrival,
		Seq:       b.seq,
		Frames:    b.n,
		Phi:       d.lastPhi,
		ServedSec: d.acc.busySec,
		Weight:    d.weight,
	}
}

// beforeLocked reports whether the policy serves a's head-of-line batch
// before b's. The pair is offered in arrival order, as the policy contract
// allows, so an answer out of range falls back to the earlier arrival.
//
//shoggoth:hotpath
func (s *service) beforeLocked(a, b *ServiceDevice) bool {
	pa, pb := a.headLocked(), b.headLocked()
	aFirst := pa.Seq < pb.Seq
	if aFirst {
		s.pair[0], s.pair[1] = pa, pb
	} else {
		s.pair[0], s.pair[1] = pb, pa
	}
	return (s.policy.Next(s.pair[:], s.occNow) == 1) != aFirst
}

// rekeyLocked restores the heap order of heads after anything a policy may
// rank d by changed: d's head-of-line batch (a batch queued or taken), its
// attained service (a batch assigned) or its φ (a batch labeled); its
// weight is fixed at registration. It inserts d when its first batch waits, removes it when its last
// one left, and otherwise sifts it to its new place, in O(log d) for d
// devices with a waiting batch.
//
//shoggoth:hotpath
func (s *service) rekeyLocked(d *ServiceDevice) {
	waits := d.qHead < len(d.queue)
	switch {
	case waits && d.heapIdx < 0:
		d.heapIdx = len(s.heads)
		//shoggoth:allow hotalloc -- grows to the most devices ever waiting at once, then reused
		s.heads = append(s.heads, d)
		s.siftUpLocked(d.heapIdx)
	case !waits && d.heapIdx >= 0:
		i, n := d.heapIdx, len(s.heads)-1
		s.swapLocked(i, n)
		s.heads[n] = nil
		s.heads = s.heads[:n]
		d.heapIdx = -1
		if i < n {
			s.fixLocked(i)
		}
	case waits:
		s.fixLocked(d.heapIdx)
	}
}

// fixLocked moves the entry at i up or down to its place in heads.
//
//shoggoth:hotpath
func (s *service) fixLocked(i int) {
	if !s.siftDownLocked(i) {
		s.siftUpLocked(i)
	}
}

//shoggoth:hotpath
func (s *service) siftUpLocked(j int) {
	for j > 0 {
		parent := (j - 1) / 2
		if !s.beforeLocked(s.heads[j], s.heads[parent]) {
			break
		}
		s.swapLocked(j, parent)
		j = parent
	}
}

// siftDownLocked reports whether the entry at i moved.
//
//shoggoth:hotpath
func (s *service) siftDownLocked(i int) bool {
	j, n := i, len(s.heads)
	for {
		child := 2*j + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && s.beforeLocked(s.heads[r], s.heads[child]) {
			child = r
		}
		if !s.beforeLocked(s.heads[child], s.heads[j]) {
			break
		}
		s.swapLocked(j, child)
		j = child
	}
	return j > i
}

func (s *service) swapLocked(i, j int) {
	h := s.heads
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}

// accCopy returns a copy of the device's raw accumulator, for a tier
// merging per-replica registrations of one logical device.
func (d *ServiceDevice) accCopy() queueAccum {
	d.svc.mu.Lock()
	defer d.svc.mu.Unlock()
	return d.acc
}

// aggCopy returns a copy of the service-wide raw accumulator.
func (s *service) aggCopy() queueAccum {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.agg
}

// coalesceCounts reports fused teacher forwards and the batches that rode
// in them.
func (s *service) coalesceCounts() (forwards, batches int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.coalescedForwards, s.coalescedBatches
}

// loadSnapshot reports the replica's occupancy (batches in service plus
// waiting) and the time until a teacher worker frees — the router's
// queue-delay estimate. It runs on the tier's hot dispatch path, once per
// replica per uploaded batch.
//
//shoggoth:hotpath
func (s *service) loadSnapshot(now float64) (queueLen int, freeInSec float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.workers[s.freeWorkerLocked()]
	if t < now {
		t = now
	}
	return s.occupancyLocked(now), t - now
}
