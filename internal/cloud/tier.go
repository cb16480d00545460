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

// DefaultSLOClass is the SLO class of devices registered without one.
const DefaultSLOClass = "standard"

// TierConfig shapes a routed tier of teacher replicas. It is the one
// description of a cloud tier: a single run carries it as Config.Cloud, a
// scenario as its "cloud" JSON block, and the live server maps its options
// onto it. The zero value is the frozen default — one FIFO worker behind a
// 1-replica round-robin tier, no admission control, no batching.
type TierConfig struct {
	// Replicas is the number of replicas the tier owns, each a full teacher
	// pipeline configured by Service. Values < 1 mean 1.
	Replicas int `json:"replicas,omitempty"`
	// Router names the replica router (see RegisterRouter). Empty means
	// RouterRoundRobin, the frozen default — with one replica the tier then
	// hands every batch to that replica unchanged.
	Router string `json:"router,omitempty"`
	// Service configures every replica (queue bound, policy, worker pool,
	// coalescing).
	Service ServiceConfig `json:"service"`
	// AdmitRatePerSec enables token-bucket admission control in front of
	// the tier: a sustained rate of batches per virtual second, with
	// AdmitBurst tokens of headroom. 0 disables admission control.
	AdmitRatePerSec float64 `json:"admit_rate_per_sec,omitempty"`
	// AdmitBurst is the bucket capacity in batches (values < 1 mean 1).
	AdmitBurst float64 `json:"admit_burst,omitempty"`
	// ColdStartSec is the one-off extra teacher time the FIRST batch of a
	// video domain pays on a replica that has never seen that domain — the
	// model-warmup cost domain-affinity routing amortises. 0 disables it.
	ColdStartSec float64 `json:"cold_start_sec,omitempty"`
}

// Validate rejects a tier NewTier cannot build: an unregistered router or
// policy name, or a negative count, rate or duration. It is the only
// check of a tier description; every front-end that accepts one calls it.
func (c TierConfig) Validate() error {
	if err := ValidateRouter(c.Router); err != nil {
		return err
	}
	if err := ValidatePolicy(c.Service.Policy); err != nil {
		return err
	}
	s := c.Service
	if c.Replicas < 0 || s.Workers < 0 || s.QueueCap < 0 || s.Coalesce < 0 {
		return fmt.Errorf("cloud: negative tier count (replicas %d, workers %d, queue cap %d, coalesce %d)",
			c.Replicas, s.Workers, s.QueueCap, s.Coalesce)
	}
	if c.AdmitRatePerSec < 0 || c.AdmitBurst < 0 || c.ColdStartSec < 0 {
		return fmt.Errorf("cloud: negative tier rate (admit rate %g, admit burst %g, cold start %g s)",
			c.AdmitRatePerSec, c.AdmitBurst, c.ColdStartSec)
	}
	return nil
}

// Resolved returns c with its zero-valued knobs replaced by what the tier
// runs with: one replica, round-robin routing, FIFO and one worker per
// replica. NewTier builds from it, so it is also what a front-end should
// report.
func (c TierConfig) Resolved() TierConfig {
	if c.Replicas < 1 {
		c.Replicas = 1
	}
	if c.Router == "" {
		c.Router = RouterRoundRobin
	}
	c.Service = c.Service.resolved()
	return c
}

// SLOClassStats summarises one SLO class's label service: batch counts,
// drop rate (admission rejections and queue-full drops combined), and the
// p50/p99 label latency — arrival at the tier to labels done, queueing and
// service included.
type SLOClassStats struct {
	Batches            int     `json:"batches"`
	Dropped            int     `json:"dropped"`
	DropRate           float64 `json:"drop_rate"`
	LabelLatencyP50Sec float64 `json:"label_latency_p50_sec"`
	LabelLatencyP99Sec float64 `json:"label_latency_p99_sec"`
}

// TierStats is the tier-wide snapshot: the merged aggregate of every
// replica (admission rejections counted into DroppedBatches), per-replica
// queue statistics, coalescing counters, per-SLO-class latency/drop
// metrics, and the Jain fairness index of served batches across devices.
type TierStats struct {
	QueueStats
	// Router is the resolved replica router name.
	Router string `json:"router,omitempty"`
	// Replicas holds each replica's own queue statistics, in replica-index
	// order.
	Replicas []QueueStats `json:"replicas,omitempty"`
	// AdmissionRejected counts batches refused by the token bucket (also
	// included in DroppedBatches).
	AdmissionRejected int `json:"admission_rejected,omitempty"`
	// CoalescedForwards counts fused multi-batch teacher forwards across
	// all replicas; CoalescedBatches the batches that rode in them.
	CoalescedForwards int `json:"coalesced_forwards,omitempty"`
	CoalescedBatches  int `json:"coalesced_batches,omitempty"`
	// SLOClasses maps class name to its metrics (encoding/json marshals map
	// keys sorted, so the JSON is deterministic).
	SLOClasses map[string]SLOClassStats `json:"slo_classes,omitempty"`
	// JainFairness is Jain's index (Σx)²/(n·Σx²) over per-device served
	// batch counts, devices in registration order: 1 = every device served
	// equally, 1/n = one device got everything.
	JainFairness float64 `json:"jain_fairness"`
}

// tokenBucket is virtual-time token-bucket admission control: capacity
// burst, refill rate tokens/sec, one token per batch, lazily refilled as a
// pure function of the times it is asked at — deterministic under the
// single event loop that drives it.
type tokenBucket struct {
	rate   float64
	burst  float64
	tokens float64
	last   float64
}

func newTokenBucket(rate, burst float64) *tokenBucket {
	if burst < 1 {
		burst = 1
	}
	return &tokenBucket{rate: rate, burst: burst, tokens: burst}
}

func (b *tokenBucket) refill(now float64) {
	if now > b.last {
		b.tokens = math.Min(b.burst, b.tokens+(now-b.last)*b.rate)
		b.last = now
	}
}

// take consumes one token if available.
func (b *tokenBucket) take(now float64) bool {
	b.refill(now)
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// peek reports whether a token is available without consuming it.
func (b *tokenBucket) peek(now float64) bool {
	b.refill(now)
	return b.tokens >= 1
}

// waitFor returns how long until the next token accrues (0 if one is
// available now).
func (b *tokenBucket) waitFor(now float64) float64 {
	b.refill(now)
	if b.tokens >= 1 {
		return 0
	}
	return (1 - b.tokens) / b.rate
}

// classAccum accumulates one SLO class's batch outcomes.
type classAccum struct {
	batches int
	dropped int
	lat     []float64 // per-batch label latency samples, completion order
}

// Tier is the cloud: a routing tier over M teacher replicas, and the one
// Backend of this package. Each replica is a full scheduling engine (own
// worker pool, queue, policy, optional coalescing); a registry-driven
// Router picks the replica for every uploaded batch, a token bucket in front
// rejects overload before it queues, and per-device state above the
// replicas (the sampling-rate controller, SLO class, fairness accounting)
// lives on TierDevice so one logical device may lazily register on several
// replicas while keeping ONE rate-control stream.
//
// A 1-replica tier with the default round-robin router, no admission
// control and no cold-start penalty hands every batch to its replica
// unchanged — the contract that keeps the golden file frozen.
//
// Determinism: routing happens in Enqueue order under the tier lock, the
// router sees load snapshots computed purely from virtual time, and warmth
// updates at routing time — so the replica choice is a pure function of
// the admitted batch sequence, independent of engine worker count.
type Tier struct {
	cfg      TierConfig // resolved: Router and Replicas name what runs
	router   Router
	replicas []*service
	// loads reports that the router reads replica loads (it does not
	// declare itself LoadBlind), so route snapshots every replica.
	loads bool

	// mu guards routing state (bucket, warmth, seq, devices, classes). It
	// nests OUTSIDE replica locks: tier.mu → svc.mu is the only order.
	mu     sync.Mutex
	bucket *tokenBucket
	seq    int
	// warm[i] maps domain id → batches replica i has been routed of it.
	warm []map[int]float64
	// targets is the pre-sized ReplicaState scratch handed to Router.Pick —
	// the dispatch path allocates nothing.
	targets           []ReplicaState
	devices           map[string]*TierDevice
	order             []*TierDevice // registration order — the Jain denominator
	classes           map[string]*classAccum
	classOrder        []string // registration order; never range the map
	admissionRejected int
}

// NewTier creates a tier of cfg.Replicas fresh replicas. It panics
// on an unregistered router or policy name — validate user input with
// TierConfig.Validate first.
func NewTier(cfg TierConfig) *Tier {
	cfg = cfg.Resolved()
	router, err := NewRouter(cfg.Router)
	if err != nil {
		panic(err)
	}
	n := cfg.Replicas
	blind, _ := router.(LoadBlind)
	t := &Tier{
		cfg:      cfg,
		router:   router,
		loads:    blind == nil || !blind.LoadBlind(),
		replicas: make([]*service, n),
		warm:     make([]map[int]float64, n),
		targets:  make([]ReplicaState, n),
		devices:  make(map[string]*TierDevice),
		classes:  make(map[string]*classAccum),
	}
	for i := range t.replicas {
		t.replicas[i] = newService(cfg.Service)
		t.warm[i] = make(map[int]float64)
		t.targets[i] = ReplicaState{Index: i, QueueCap: cfg.Service.QueueCap}
	}
	if cfg.AdmitRatePerSec > 0 {
		t.bucket = newTokenBucket(cfg.AdmitRatePerSec, cfg.AdmitBurst)
	}
	return t
}

// Bind attaches the virtual-time timeline that drives every replica's
// deferred dispatch. Reordering (non-Immediate) policies and coalescing
// require it before the first Enqueue; arrival-order policies and the
// real-time Admit path never use it.
func (t *Tier) Bind(tl sim.Timeline) {
	for _, svc := range t.replicas {
		svc.sched = tl
	}
}

// Replicas returns the replica count.
func (t *Tier) Replicas() int { return len(t.replicas) }

// Router returns the resolved replica router name.
func (t *Tier) Router() string { return t.cfg.Router }

// TierDevice is one logical edge device registered on a Tier. The tier
// owns the device's sampling-rate controller (ONE rate stream regardless
// of how many replicas end up serving it); per-replica registrations are
// minted lazily the first time the router sends a batch that way, each
// carrying its own labeler so φ continuity is per (device, replica).
type TierDevice struct {
	tier       *Tier
	id         string
	class      string
	teacher    *detect.Teacher
	labelerCfg LabelerConfig
	ctrl       *Controller
	weight     float64
	analytic   bool             // priced, never executed, labeling (DeviceOptions.Analytic)
	regs       []*ServiceDevice // index-aligned with tier.replicas; nil until routed to
	served     int
	drops      int // token-bucket rejections (queue-full drops live in regs)
}

// Register adds a device to the tier. Each device brings its own teacher
// (its error stream) and labeler configuration; the optional controller
// config attaches the tier-owned rate controller; opts carries the SLO
// class, the fair-queueing weight — fixed from here on — and analytic
// pricing. Duplicate ids are rejected so two deployments can never alias
// one φ stream. Register is safe for concurrent use (the rpc server
// registers devices as they post their registrations).
func (t *Tier) Register(id string, teacher *detect.Teacher, labelerCfg LabelerConfig, ctrlCfg *ControllerConfig, opts DeviceOptions) (*TierDevice, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.devices[id]; dup {
		return nil, fmt.Errorf("cloud: device %q already registered", id)
	}
	class := opts.SLOClass
	if class == "" {
		class = DefaultSLOClass
	}
	td := &TierDevice{
		tier:       t,
		id:         id,
		class:      class,
		teacher:    teacher,
		labelerCfg: labelerCfg,
		weight:     1,
		analytic:   opts.Analytic,
		regs:       make([]*ServiceDevice, len(t.replicas)),
	}
	if ctrlCfg != nil {
		td.ctrl = NewController(*ctrlCfg)
	}
	if opts.Weight > 0 {
		td.weight = opts.Weight
	}
	t.devices[id] = td
	t.order = append(t.order, td)
	return td, nil
}

// RegisterDevice implements Backend.
func (t *Tier) RegisterDevice(id string, teacher *detect.Teacher, labelerCfg LabelerConfig, ctrlCfg *ControllerConfig, opts DeviceOptions) (Device, error) {
	return t.Register(id, teacher, labelerCfg, ctrlCfg, opts)
}

// Devices returns the number of registered devices.
func (t *Tier) Devices() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.devices)
}

// classLocked returns (creating on first use) the accumulator of an SLO
// class. Classes are tracked in first-use order so snapshots never range
// over the map.
func (t *Tier) classLocked(name string) *classAccum {
	c := t.classes[name]
	if c == nil {
		c = &classAccum{}
		t.classes[name] = c
		t.classOrder = append(t.classOrder, name)
	}
	return c
}

// route picks the replica for one admitted batch and updates domain
// warmth, returning the replica index and the batch's cold-start surcharge.
// Called under t.mu for every uploaded batch — the tier's dispatch hot
// path, so it (and every Router.Pick it reaches) must not allocate.
//
// A LoadBlind router gets no load snapshots. Skipping one is bit-neutral:
// besides reading, a snapshot only raises the replica's occupancy clock
// (occNow) to now and pops the batches done by then, and the next
// admission on that replica does both at its own now, which is no earlier
// in virtual time — so it drains to the same state either way, and no
// Policy may read occNow (Policy.Next must not depend on now).
//
//shoggoth:hotpath
func (t *Tier) route(td *TierDevice, frames []*video.Frame, now float64) (int, float64) {
	domain := -1
	if len(frames) > 0 {
		domain = frames[0].DomainID
	}
	for i, svc := range t.replicas {
		st := &t.targets[i]
		if t.loads {
			st.QueueLen, st.FreeInSec = svc.loadSnapshot(now)
		}
		st.Warmth = 0
		if domain >= 0 {
			st.Warmth = t.warm[i][domain]
		}
	}
	ri := t.router.Pick(t.targets, RouteInfo{
		Device: td.id,
		Class:  td.class,
		Domain: domain,
		Frames: len(frames),
		Seq:    t.seq,
	}, now)
	if ri < 0 || ri >= len(t.replicas) {
		ri = 0
	}
	var extra float64
	if domain >= 0 {
		if t.warm[ri][domain] == 0 && t.cfg.ColdStartSec > 0 {
			extra = t.cfg.ColdStartSec
		}
		// Warmth accrues at routing time, not completion: the choice stays a
		// pure function of the admitted batch sequence.
		t.warm[ri][domain]++
	}
	return ri, extra
}

// admitRoute runs the token bucket and the router for one batch, lazily
// registering the device on the chosen replica. ok is false when the
// bucket rejected the batch (accounted against the device and its class).
func (t *Tier) admitRoute(td *TierDevice, frames []*video.Frame, now float64) (reg *ServiceDevice, extra float64, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.bucket != nil && !t.bucket.take(now) {
		td.drops++
		t.admissionRejected++
		t.classLocked(td.class).dropped++
		return nil, 0, false
	}
	t.seq++
	ri, ex := t.route(td, frames, now)
	reg = td.regs[ri]
	if reg == nil {
		reg = t.replicas[ri].registerRouted(td)
		td.regs[ri] = reg
	}
	return reg, ex, true
}

// record accounts one labeled batch: the device's served count (the Jain
// numerator) and its class's label-latency sample (arrival → done). A
// replica records its routed batches itself, before their callbacks run.
func (t *Tier) record(td *TierDevice, arrival, done float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	td.served++
	c := t.classLocked(td.class)
	c.batches++
	c.lat = append(c.lat, done-arrival)
}

// recordQueueDrop accounts a queue-full drop against the device's class
// (the replica already counted it in its own queue statistics).
func (t *Tier) recordQueueDrop(class string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.classLocked(class).dropped++
}

// ID returns the device's registration id.
func (td *TierDevice) ID() string { return td.id }

// Enqueue admits one uploaded batch at virtual time now: token bucket,
// replica routing, then the chosen replica's Enqueue. cb runs exactly once
// with the labeled result unless the batch is rejected (bucket or a full
// replica queue), in which case Enqueue returns false and cb never runs.
func (td *TierDevice) Enqueue(frames []*video.Frame, now float64, cb func(BatchResult)) bool {
	t := td.tier
	reg, extra, ok := t.admitRoute(td, frames, now)
	if !ok {
		return false
	}
	ok = reg.enqueue(frames, now, extra, cb)
	if !ok {
		t.recordQueueDrop(td.class)
	}
	return ok
}

// Admit routes one real-time batch — token bucket, replica routing, then
// the replica's arrival-order admission — and returns the replica
// registration the caller must label on (φ continuity is per (device,
// replica)). ok is false when the batch was rejected; the drop is counted.
// The real-time path never coalesces: the network already fixed the order,
// and a live server cannot hold frames hostage for riders.
func (td *TierDevice) Admit(frames []*video.Frame, now float64) (Admission, *ServiceDevice, bool) {
	t := td.tier
	reg, extra, ok := t.admitRoute(td, frames, now)
	if !ok {
		return Admission{}, nil, false
	}
	adm, ok := reg.admit(len(frames), now, extra)
	if !ok {
		t.recordQueueDrop(td.class)
		return Admission{}, nil, false
	}
	t.record(td, now, adm.Done)
	return adm, reg, true
}

// Adaptive reports whether this device has a sampling-rate controller.
func (td *TierDevice) Adaptive() bool { return td.ctrl != nil }

// Rate returns the tier-owned controller's current sampling rate (0
// without one).
func (td *TierDevice) Rate() float64 {
	if td.ctrl == nil {
		return 0
	}
	return td.ctrl.Rate()
}

// UpdateRate feeds the tier-owned controller one (φ̄, α, λ̄) report and
// returns the new rate command; ok is false without a controller. One
// stream regardless of which replicas served the batches.
func (td *TierDevice) UpdateRate(phiMean, alpha, lambda float64) (rate float64, ok bool) {
	if td.ctrl == nil {
		return 0, false
	}
	return td.ctrl.Update(phiMean, alpha, lambda), true
}

// Stats merges this device's queue statistics across every replica that
// served it (replica-index order), token-bucket rejections included. With
// one replica the merge reproduces that replica's statistics of the device
// bit for bit.
func (td *TierDevice) Stats() QueueStats {
	t := td.tier
	t.mu.Lock()
	defer t.mu.Unlock()
	m := queueAccum{dropped: td.drops}
	for _, reg := range td.regs {
		if reg != nil {
			m.merge(reg.accCopy())
		}
	}
	return m.snapshot()
}

// Stats returns the tier-wide aggregate: every replica's statistics merged
// in index order, token-bucket rejections counted as drops.
func (t *Tier) Stats() QueueStats {
	var m queueAccum
	for _, svc := range t.replicas {
		m.merge(svc.aggCopy())
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	m.dropped += t.admissionRejected
	return m.snapshot()
}

// AtCapacity reports whether a batch arriving at time now would be
// rejected: the token bucket is dry, or every replica's queue is full. An
// advisory pre-check — Enqueue/Admit re-check authoritatively.
func (t *Tier) AtCapacity(now float64) bool {
	t.mu.Lock()
	dry := t.bucket != nil && !t.bucket.peek(now)
	t.mu.Unlock()
	if dry {
		return true
	}
	if t.cfg.Service.QueueCap <= 0 {
		return false
	}
	for _, svc := range t.replicas {
		if !svc.AtCapacity(now) {
			return false
		}
	}
	return true
}

// RetryAfterSec estimates how long until the tier can admit again: the
// soonest replica drain (each pool-aware, see service.RetryAfterSec) and —
// when admission control is the binding constraint — the token bucket's
// next accrual, whichever binds later.
func (t *Tier) RetryAfterSec(now float64) float64 {
	min := math.Inf(1)
	for _, svc := range t.replicas {
		if r := svc.RetryAfterSec(now); r < min {
			min = r
		}
	}
	if math.IsInf(min, 1) {
		min = 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.bucket != nil {
		if w := t.bucket.waitFor(now); w > min {
			min = w
		}
	}
	return min
}

// TierStats returns the full tier snapshot: merged aggregate, per-replica
// statistics, coalescing counters, SLO-class metrics and the device
// fairness index.
func (t *Tier) TierStats() TierStats {
	var m queueAccum
	reps := make([]QueueStats, len(t.replicas))
	var fwd, rode int
	for i, svc := range t.replicas {
		a := svc.aggCopy()
		m.merge(a)
		reps[i] = a.snapshot()
		f, r := svc.coalesceCounts()
		fwd += f
		rode += r
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	m.dropped += t.admissionRejected
	out := TierStats{
		QueueStats:        m.snapshot(),
		Router:            t.cfg.Router,
		Replicas:          reps,
		AdmissionRejected: t.admissionRejected,
		CoalescedForwards: fwd,
		CoalescedBatches:  rode,
	}
	if len(t.classOrder) > 0 {
		sc := make(map[string]SLOClassStats, len(t.classOrder))
		for _, name := range t.classOrder {
			c := t.classes[name]
			s := SLOClassStats{Batches: c.batches, Dropped: c.dropped}
			if tot := c.batches + c.dropped; tot > 0 {
				s.DropRate = float64(c.dropped) / float64(tot)
			}
			if len(c.lat) > 0 {
				s.LabelLatencyP50Sec = metrics.Quantile(c.lat, 0.5)
				s.LabelLatencyP99Sec = metrics.Quantile(c.lat, 0.99)
			}
			sc[name] = s
		}
		out.SLOClasses = sc
	}
	xs := make([]float64, len(t.order))
	for i, td := range t.order {
		xs[i] = float64(td.served)
	}
	out.JainFairness = metrics.JainIndex(xs)
	return out
}
