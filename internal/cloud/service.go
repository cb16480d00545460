package cloud

import (
	"fmt"
	"math"
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

// resolved returns c with its zero-valued knobs replaced by what a Service
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
// dispatch path (reordering policies only).
type pendingBatch struct {
	dev     *ServiceDevice
	frames  []*video.Frame
	arrival float64
	seq     int
	// extra is additional one-off service time the batch carries (a tier's
	// domain cold-start penalty); 0 on every pre-tier path.
	extra float64
	cb    func(BatchResult)
}

// Service is the cloud scheduling engine: one shared labeling backend
// multiplexed across many edge devices. A configurable pool of teacher
// workers (ServiceConfig.Workers, each with its own busyUntil horizon)
// serves batches in the order a pluggable Policy decides, behind a finite
// admission queue (QueueCap); contention shows up as queueing delay, and
// overload as drops. Per-device state — labeler φ continuity and the
// optional sampling-rate controller — is keyed by device id.
//
// Two driving modes share the engine:
//
//   - Virtual time (simulation): Enqueue batches from one event loop.
//     Arrival-order policies (Policy.Immediate) are scheduled synchronously
//     at admission; reordering policies queue and dispatch through the
//     bound sim.Scheduler (Bind). The virtual-time methods must be driven
//     from a single event loop.
//   - Real time (internal/rpc): Admit/LabelFrames split admission (engine
//     state, internally locked) from labeling (caller-serialised per
//     device), so a live HTTP server shares the exact admission, horizon
//     and statistics model while unrelated devices label concurrently.
type Service struct {
	cfg       ServiceConfig
	policy    Policy
	immediate bool

	// mu guards the scheduling state below (horizons, outstanding, pending,
	// accumulators, registry). The virtual-time path is single-threaded and
	// pays only an uncontended lock; the rpc path genuinely contends.
	mu sync.Mutex
	// workers holds each teacher worker's busyUntil horizon. A batch is
	// assigned to the free worker with the smallest horizon, ties broken by
	// the lowest worker index — part of the determinism contract.
	workers []float64
	// outstanding is a min-heap of the completion times of assigned batches
	// still in the system; occupancyLocked pops the ones that have completed
	// as time advances. Its length plus the pending queue is the queue
	// occupancy QueueCap bounds.
	outstanding doneHeap
	// occNow is the latest time occupancy has been asked at (see
	// occupancyLocked).
	occNow  float64
	pending []*pendingBatch
	seq     int
	agg     queueAccum
	devices map[string]*ServiceDevice
	// coalescedForwards counts multi-batch teacher forwards; coalescedBatches
	// counts the batches that rode in them (primaries included).
	coalescedForwards int
	coalescedBatches  int

	// sched drives deferred dispatch for reordering policies (Bind). A
	// Timeline rather than a concrete scheduler so the fleet engine can
	// substitute its shared event queue.
	sched       sim.Timeline
	dispatchFn  func(now float64) // s.onDispatch, bound once: a method value allocates where it is taken
	dispatchSet bool
	dispatchAt  float64

	// Deferred-dispatch scratch, grown once and reused so a dispatch in
	// steady state allocates nothing of its own: the policy's view of the
	// queue (eligible, idx; selEpoch stamps the devices already offered),
	// the coalesced group with its prices, and the batches assigned by one
	// dispatch event.
	eligible []Pending
	idx      []int
	selEpoch uint64
	group    []*pendingBatch
	costs    []float64
	ready    []assigned
}

// assigned is one batch a dispatch event put on a worker, held until the
// engine lock is released and its callback may run.
type assigned struct {
	b   *pendingBatch
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

// NewService creates an empty labeling engine. It panics on an unregistered
// policy name — validate user input with TierConfig.Validate first.
func NewService(cfg ServiceConfig) *Service {
	cfg = cfg.resolved()
	policy, err := NewPolicy(cfg.Policy)
	if err != nil {
		panic(err)
	}
	s := &Service{
		cfg:    cfg,
		policy: policy,
		// Coalescing fuses batches when a worker frees, so it needs the
		// deferred dispatch path even under an arrival-order policy.
		immediate: policy.Immediate() && cfg.Coalesce < 2,
		workers:   make([]float64, cfg.Workers),
		devices:   make(map[string]*ServiceDevice),
	}
	s.dispatchFn = s.onDispatch
	return s
}

// Bind attaches the virtual-time timeline that drives deferred dispatch.
// Reordering (non-Immediate) policies require it before the first Enqueue;
// arrival-order policies and the real-time Admit path never use it.
func (s *Service) Bind(tl sim.Timeline) { s.sched = tl }

// Workers returns the teacher pipeline pool size.
func (s *Service) Workers() int { return len(s.workers) }

// Policy returns the resolved scheduling policy name.
func (s *Service) Policy() string { return s.cfg.Policy }

// ServiceDevice is one registered edge device's cloud-side state: its own
// labeler (φ continuity) and optional sampling-rate controller, sharing the
// engine's teacher workers with every other device.
type ServiceDevice struct {
	svc      *Service
	id       string
	labeler  *Labeler
	ctrl     *Controller
	acc      queueAccum
	weight   float64
	analytic bool    // price labeling instead of executing it (events fidelity)
	lastPhi  float64 // most recent batch mean φ — the drift signal policies rank by
	selEpoch uint64  // the selection that last offered this device's head-of-line batch
}

// Register adds a device to the service. Each device brings its own teacher
// (its error stream) and labeler configuration; ctrlCfg non-nil attaches a
// per-device sampling-rate controller. Duplicate ids are rejected so two
// deployments can never alias one φ stream. Register is safe for concurrent
// use (the rpc server registers devices on first contact).
func (s *Service) Register(id string, teacher *detect.Teacher, labelerCfg LabelerConfig, ctrlCfg *ControllerConfig) (*ServiceDevice, error) {
	return s.register(id, teacher, labelerCfg, ctrlCfg, false)
}

// register is Register plus the analytic-pricing flag (DeviceOptions
// Analytic); the flag is per device, so analytic fleet devices and executed
// full-fidelity devices coexist on one service.
func (s *Service) register(id string, teacher *detect.Teacher, labelerCfg LabelerConfig, ctrlCfg *ControllerConfig, analytic bool) (*ServiceDevice, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.devices[id]; dup {
		return nil, fmt.Errorf("cloud: device %q already registered", id)
	}
	d := &ServiceDevice{svc: s, id: id, labeler: NewLabeler(teacher, labelerCfg), weight: 1, analytic: analytic}
	if ctrlCfg != nil {
		d.ctrl = NewController(*ctrlCfg)
	}
	s.devices[id] = d
	return d, nil
}

// Devices returns the number of registered devices.
func (s *Service) Devices() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.devices)
}

// Stats returns the service-wide queue statistics.
func (s *Service) Stats() QueueStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.agg.snapshot()
}

// AtCapacity reports whether a batch arriving at time now would be dropped
// at the admission bound. It lets the rpc server refuse an unknown device's
// upload BEFORE allocating its per-device state (teacher, controller) — an
// advisory pre-check only: Admit re-checks authoritatively.
func (s *Service) AtCapacity(now float64) bool {
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
func (s *Service) RetryAfterSec(now float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	earliest := math.Inf(1)
	s.occupancyLocked(now) // drops completed batches, so the heap's root is the next completion
	if len(s.outstanding) > 0 {
		earliest = s.outstanding[0]
	}
	if len(s.pending) > 0 {
		// Replay the pending queue over a copy of the worker horizons in
		// arrival order (a conservative estimate: reordering policies and
		// coalescing can only finish a first batch sooner). The first
		// simulated completion frees a queue slot.
		horizons := make([]float64, len(s.workers))
		copy(horizons, s.workers)
		for _, b := range s.pending {
			w := 0
			for i := 1; i < len(horizons); i++ {
				if horizons[i] < horizons[w] {
					w = i
				}
			}
			start := math.Max(now, horizons[w])
			service := float64(len(b.frames))*b.dev.labeler.Config.TeacherLatencySec + b.extra
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
	// Phis are the per-frame φ label-change losses, in frame order.
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
func (s *Service) occupancyLocked(now float64) int {
	if now > s.occNow {
		s.occNow = now
	}
	for len(s.outstanding) > 0 && s.outstanding[0] <= s.occNow {
		s.outstanding.popMin()
	}
	return len(s.outstanding) + len(s.pending)
}

// fullLocked reports whether a batch arriving at now finds the admission
// queue at its bound.
func (s *Service) fullLocked(now float64) bool {
	occ := s.occupancyLocked(now) // also when unbounded: it is what drains the heap
	return s.cfg.QueueCap > 0 && occ >= s.cfg.QueueCap
}

// freeWorkerLocked returns the worker with the smallest busyUntil horizon,
// ties broken by the lowest index (the deterministic tie-break rule).
func (s *Service) freeWorkerLocked() int {
	best := 0
	for i := 1; i < len(s.workers); i++ {
		if s.workers[i] < s.workers[best] {
			best = i
		}
	}
	return best
}

// assignLocked schedules one batch of n frames from d onto the best worker,
// starting no earlier than now, and records the queue statistics. arrival
// is when the batch entered the system (equals now on the eager path);
// extra is one-off additional service time (a tier cold-start penalty —
// only added when nonzero, so extra-free paths keep the exact float op
// sequence of the pre-tier cloud).
func (s *Service) assignLocked(d *ServiceDevice, n int, now, arrival, extra float64) Admission {
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
	s.workers[w] = done
	s.outstanding.push(done)

	delay := start - arrival
	d.acc.admit(delay, service)
	s.agg.admit(delay, service)
	return Admission{Start: start, Done: done, QueueDelaySec: delay, ServiceSec: service}
}

// Admit runs admission control and worker assignment for a batch of nFrames
// arriving at time now, in arrival order (the policy is not consulted — this
// is the real-time path, where the network already fixed the order). ok is
// false when the queue is full; the drop is counted. Admit is safe for
// concurrent use; the caller labels the admitted frames with LabelFrames
// under its own per-device serialisation.
func (d *ServiceDevice) Admit(nFrames int, now float64) (Admission, bool) {
	return d.admitExtra(nFrames, now, 0)
}

// admitExtra is Admit carrying one-off extra service time (a tier
// cold-start penalty).
func (d *ServiceDevice) admitExtra(nFrames int, now, extra float64) (Admission, bool) {
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
	if d.analytic {
		// Events-fidelity pricing: the batch was queued, assigned a worker
		// horizon and charged its full (or coalesced-rider) service time by
		// the scheduling layer above — but the teacher itself never runs.
		// Labels are nil by contract; φ is the deterministic drift model.
		phis := d.labeler.PhiAnalytic(frames)
		var phi metrics.Running
		for _, p := range phis {
			phi.Add(p)
		}
		mean := phi.Mean()
		d.lastPhi = mean
		return nil, phis, mean
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

// Label runs the teacher over one uploaded batch arriving at virtual time
// now, synchronously: admission, worker assignment and labeling in one
// call. It requires an arrival-order (Immediate) policy — under a
// reordering policy a synchronous result would bypass the policy, so Label
// panics there; use Enqueue instead.
func (d *ServiceDevice) Label(frames []*video.Frame, now float64) BatchResult {
	return d.labelExtra(frames, now, 0)
}

// labelExtra is Label carrying one-off extra service time.
func (d *ServiceDevice) labelExtra(frames []*video.Frame, now, extra float64) BatchResult {
	if !d.svc.immediate {
		panic(fmt.Sprintf("cloud: Label requires an arrival-order policy without coalescing; %q (coalesce %d) defers — use Enqueue",
			d.svc.Policy(), d.svc.cfg.Coalesce))
	}
	adm, ok := d.admitExtra(len(frames), now, extra)
	if !ok {
		return BatchResult{Dropped: true}
	}
	labels, phis, phiMean := d.LabelFrames(frames)
	return BatchResult{
		Labels:        labels,
		Phis:          phis,
		PhiMean:       phiMean,
		Start:         adm.Start,
		Done:          adm.Done,
		QueueDelaySec: adm.QueueDelaySec,
	}
}

// Enqueue admits one uploaded batch at virtual time now and arranges for cb
// to be invoked exactly once with the labeled result — synchronously under
// an arrival-order policy (the FIFO fast path), or from a deferred dispatch
// event once a worker frees and the policy selects the batch. It returns
// false (and never calls cb) when the batch is dropped at a full queue.
// Reordering policies require a bound scheduler (Bind).
func (d *ServiceDevice) Enqueue(frames []*video.Frame, now float64, cb func(BatchResult)) bool {
	return d.enqueueOpts(frames, now, 0, cb)
}

// enqueueOpts is Enqueue carrying one-off extra service time (a tier
// cold-start penalty; 0 on the plain path).
func (d *ServiceDevice) enqueueOpts(frames []*video.Frame, now, extra float64, cb func(BatchResult)) bool {
	s := d.svc
	if s.immediate {
		res := d.labelExtra(frames, now, extra)
		if res.Dropped {
			return false
		}
		cb(res)
		return true
	}
	if s.sched == nil {
		panic(fmt.Sprintf("cloud: policy %q (coalesce %d) needs a scheduler; call Service.Bind first", s.Policy(), s.cfg.Coalesce))
	}
	s.mu.Lock()
	if s.fullLocked(now) {
		d.acc.dropped++
		s.agg.dropped++
		s.mu.Unlock()
		return false
	}
	s.seq++
	s.pending = append(s.pending, &pendingBatch{dev: d, frames: frames, arrival: now, seq: s.seq, extra: extra, cb: cb})
	s.ensureDispatchLocked(now)
	s.mu.Unlock()
	return true
}

// ensureDispatchLocked schedules the next dispatch event at the earliest
// time a worker frees (no earlier than now). Horizons only grow, so an
// already-scheduled earlier-or-equal event covers this request.
func (s *Service) ensureDispatchLocked(now float64) {
	if len(s.pending) == 0 {
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

// onDispatch assigns every free worker a pending batch in policy order —
// or, with coalescing enabled, a policy-ordered GROUP of compatible batches
// fused into one priced teacher forward — then labels the assigned batches
// and delivers their callbacks in assignment order. Selection and labeling
// are split so no callback runs while the engine lock is held.
func (s *Service) onDispatch(now float64) {
	s.mu.Lock()
	s.ready = s.dispatchLocked(now, s.ready[:0])
	ready := s.ready // only dispatch events touch it, and the event loop runs one at a time
	s.mu.Unlock()

	for k := range ready {
		a := &ready[k]
		labels, phis, phiMean := a.b.dev.LabelFrames(a.b.frames)
		a.b.cb(BatchResult{
			Labels:        labels,
			Phis:          phis,
			PhiMean:       phiMean,
			Start:         a.adm.Start,
			Done:          a.adm.Done,
			QueueDelaySec: a.adm.QueueDelaySec,
		})
		a.b = nil // the scratch must not pin a delivered batch's frames
	}
}

// dispatchLocked is the scheduling half of a dispatch event: selection and
// worker assignment for every free worker, appended to ready in assignment
// order, and the next dispatch event armed. It allocates nothing in steady
// state; the labeling half (onDispatch) produces the label sets and φs that
// escape to the batch callbacks.
//
//shoggoth:hotpath
func (s *Service) dispatchLocked(now float64, ready []assigned) []assigned {
	s.dispatchSet = false
	for len(s.pending) > 0 && s.workers[s.freeWorkerLocked()] <= now {
		if s.cfg.Coalesce >= 2 {
			ready = s.assignGroupLocked(ready, s.selectGroupLocked(now), now)
			continue
		}
		b := s.takeLocked(s.selectLocked(now))
		//shoggoth:allow hotalloc -- grows to the most batches one dispatch event has assigned, then reused
		ready = append(ready, assigned{b: b, adm: s.assignLocked(b.dev, len(b.frames), now, b.arrival, b.extra)})
	}
	s.ensureDispatchLocked(now)
	return ready
}

// takeLocked removes and returns pending[i], keeping arrival order.
func (s *Service) takeLocked(i int) *pendingBatch {
	b := s.pending[i]
	n := len(s.pending) - 1
	copy(s.pending[i:], s.pending[i+1:])
	s.pending[n] = nil
	s.pending = s.pending[:n]
	return b
}

// selectGroupLocked pulls up to Coalesce pending batches for one fused
// teacher forward, each chosen by the policy in turn (so the primary — and
// every rider — is still the policy's pick among eligible heads). Selection
// stops early at an incompatible batch: riders must share the primary's
// per-frame teacher latency, or the fused forward's pricing would mix
// models. The returned group is service scratch, valid until the next call.
//
//shoggoth:hotpath
func (s *Service) selectGroupLocked(now float64) []*pendingBatch {
	if cap(s.group) < s.cfg.Coalesce {
		s.group = make([]*pendingBatch, 0, s.cfg.Coalesce)
		s.costs = make([]float64, s.cfg.Coalesce)
	}
	first := s.takeLocked(s.selectLocked(now))
	group := s.group[:1]
	group[0] = first
	lat := first.dev.labeler.Config.TeacherLatencySec
	for len(group) < s.cfg.Coalesce && len(s.pending) > 0 {
		j := s.selectLocked(now)
		if s.pending[j].dev.labeler.Config.TeacherLatencySec != lat {
			break
		}
		group = group[:len(group)+1]
		group[len(group)-1] = s.takeLocked(j)
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
func (s *Service) assignGroupLocked(ready []assigned, group []*pendingBatch, now float64) []assigned {
	w := s.freeWorkerLocked()
	start := math.Max(now, s.workers[w])
	costs := s.costs[:len(group)]
	var total float64
	for k, b := range group {
		lat := b.dev.labeler.Config.TeacherLatencySec
		if k > 0 {
			lat *= coalesceMarginal
		}
		var c float64
		for i := 0; i < len(b.frames); i++ {
			c += lat
		}
		if b.extra != 0 {
			c += b.extra
		}
		costs[k] = c
		total += c
	}
	done := start + total
	s.workers[w] = done
	for k, b := range group {
		s.outstanding.push(done)
		delay := start - b.arrival
		b.dev.acc.admit(delay, costs[k])
		s.agg.admit(delay, costs[k])
		//shoggoth:allow hotalloc -- grows to the most batches one dispatch event has assigned, then reused
		ready = append(ready, assigned{b: b, adm: Admission{Start: start, Done: done, QueueDelaySec: delay, ServiceSec: costs[k]}})
		group[k] = nil
	}
	if len(group) > 1 {
		s.coalescedForwards++
		s.coalescedBatches += len(group)
	}
	return ready
}

// selectLocked asks the policy for the next batch among each device's
// head-of-line batch and returns its index in s.pending. A policy returning
// an out-of-range index falls back to the head of the queue. The policy's
// view is built in service scratch, and a device is marked as already
// offered by stamping it with this selection's number, so a selection
// allocates nothing once the scratch has reached the queue's size.
//
//shoggoth:hotpath
func (s *Service) selectLocked(now float64) int {
	if cap(s.eligible) < len(s.pending) {
		n := len(s.pending) + len(s.pending)/2
		s.eligible = make([]Pending, 0, n)
		s.idx = make([]int, 0, n)
	}
	eligible, idx := s.eligible[:0], s.idx[:0]
	s.selEpoch++
	for i, b := range s.pending { // pending is in arrival (seq) order
		d := b.dev
		if d.selEpoch == s.selEpoch {
			continue
		}
		d.selEpoch = s.selEpoch
		n := len(eligible)
		eligible, idx = eligible[:n+1], idx[:n+1]
		eligible[n] = Pending{
			Device:    d.id,
			Arrival:   b.arrival,
			Seq:       b.seq,
			Frames:    len(b.frames),
			Phi:       d.lastPhi,
			ServedSec: d.acc.busySec,
			Weight:    d.weight,
		}
		idx[n] = i
	}
	choice := s.policy.Next(eligible, now)
	if choice < 0 || choice >= len(idx) {
		choice = 0
	}
	return idx[choice]
}

// ID returns the device's registration id.
func (d *ServiceDevice) ID() string { return d.id }

// SetWeight sets the device's fair-queueing weight (PolicyWFQ share;
// non-positive values reset to the default 1).
func (d *ServiceDevice) SetWeight(w float64) {
	d.svc.mu.Lock()
	defer d.svc.mu.Unlock()
	if w <= 0 {
		w = 1
	}
	d.weight = w
}

// Adaptive reports whether this device has a sampling-rate controller.
func (d *ServiceDevice) Adaptive() bool { return d.ctrl != nil }

// Rate returns the controller's current sampling rate (0 without one).
func (d *ServiceDevice) Rate() float64 {
	if d.ctrl == nil {
		return 0
	}
	return d.ctrl.Rate()
}

// UpdateRate feeds the device's controller one (φ̄, α, λ̄) report and
// returns the new rate command; ok is false without a controller.
func (d *ServiceDevice) UpdateRate(phiMean, alpha, lambda float64) (rate float64, ok bool) {
	if d.ctrl == nil {
		return 0, false
	}
	return d.ctrl.Update(phiMean, alpha, lambda), true
}

// Stats returns this device's queue statistics.
func (d *ServiceDevice) Stats() QueueStats {
	d.svc.mu.Lock()
	defer d.svc.mu.Unlock()
	return d.acc.snapshot()
}

// accCopy returns a copy of the device's raw accumulator, for a tier
// merging per-replica registrations of one logical device.
func (d *ServiceDevice) accCopy() queueAccum {
	d.svc.mu.Lock()
	defer d.svc.mu.Unlock()
	return d.acc
}

// aggCopy returns a copy of the service-wide raw accumulator.
func (s *Service) aggCopy() queueAccum {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.agg
}

// coalesceCounts reports fused teacher forwards and the batches that rode
// in them.
func (s *Service) coalesceCounts() (forwards, batches int) {
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
func (s *Service) loadSnapshot(now float64) (queueLen int, freeInSec float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.workers[s.freeWorkerLocked()]
	if t < now {
		t = now
	}
	return s.occupancyLocked(now), t - now
}
