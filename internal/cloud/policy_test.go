package cloud

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"shoggoth/internal/sim"
	"shoggoth/internal/video"
)

func TestPolicyRegistry(t *testing.T) {
	es := Policies()
	if len(es) < 3 || es[0].Name != PolicyFIFO || es[1].Name != PolicyPhiPriority || es[2].Name != PolicyWFQ {
		t.Fatalf("stock policies missing or reordered: %v", es)
	}
	if _, err := NewPolicy(""); err != nil {
		t.Fatalf("empty name must resolve to the default: %v", err)
	}
	if _, err := NewPolicy("FIFO"); err != nil {
		t.Fatalf("lookup must be case-insensitive: %v", err)
	}
	if _, err := NewPolicy("no-such-policy"); err == nil {
		t.Fatal("unknown policy must be rejected")
	}
	if err := ValidatePolicy("wfq"); err != nil {
		t.Fatal(err)
	}
	if err := RegisterPolicy(PolicyWFQ, "dup", func() Policy { return wfqPolicy{} }); err == nil {
		t.Fatal("duplicate policy registration must be rejected")
	}
	if p, _ := NewPolicy(PolicyFIFO); !p.Immediate() {
		t.Fatal("fifo must be the immediate (arrival-order) policy")
	}
	if es[2].Summary == "" {
		t.Fatal("stock policies carry a summary for help text")
	}
}

// framesAtStride returns n frames sampled every stride camera frames — a
// wide stride means more scene change between labeled frames, so higher φ.
func framesAtStride(t *testing.T, seed uint64, n, stride int) []*video.Frame {
	t.Helper()
	p := video.DETRACProfile()
	stream := video.NewStream(p, seed)
	out := make([]*video.Frame, 0, n)
	for i := 0; len(out) < n; i++ {
		f := stream.Next()
		if i%stride == 0 {
			out = append(out, f)
		}
	}
	return out
}

// deferredService builds a bound one-replica tier for a reordering policy.
func deferredService(t *testing.T, policy string, workers, queueCap int) (*Tier, *sim.Scheduler) {
	t.Helper()
	svc := oneReplica(ServiceConfig{QueueCap: queueCap, Policy: policy, Workers: workers})
	sched := sim.NewScheduler()
	svc.Bind(sched)
	return svc, sched
}

// TestWFQEqualShareUnderBacklog: N identical devices with a sustained
// backlog must receive equal teacher shares — the fair-queueing guarantee.
// (Under FIFO the same arrival pattern would drain device a completely
// before b ever ran.)
func TestWFQEqualShareUnderBacklog(t *testing.T) {
	svc, sched := deferredService(t, PolicyWFQ, 1, 0)
	devs := []*TierDevice{
		newTierDevice(t, svc, "a", 1, DeviceOptions{}),
		newTierDevice(t, svc, "b", 2, DeviceOptions{}),
		newTierDevice(t, svc, "c", 3, DeviceOptions{}),
	}
	frames := serviceFrames(t, 4)
	perBatch := float64(len(frames)) * DefaultLabelerConfig().TeacherLatencySec

	// Device a enqueues its entire backlog first, then b, then c — the
	// adversarial arrival order for fairness.
	for _, d := range devs {
		for i := 0; i < 10; i++ {
			if !d.Enqueue(frames, 0, func(BatchResult) {}) {
				t.Fatal("uncapped queue must admit")
			}
		}
	}
	sched.AdvanceTo(12 * perBatch) // serve 12 of the 30 batches, backlog throughout

	busy := make([]float64, len(devs))
	for i, d := range devs {
		busy[i] = d.Stats().BusySeconds
	}
	for i := 1; i < len(busy); i++ {
		if math.Abs(busy[i]-busy[0]) > perBatch+1e-9 {
			t.Fatalf("teacher share unfair under WFQ: busy seconds %v (tolerance one batch %v)", busy, perBatch)
		}
	}
	if busy[0] == 0 {
		t.Fatal("no service happened; the dispatch path is broken")
	}
}

// TestWFQWeightedShare: a device with weight 2 gets twice the teacher share
// of a weight-1 device under sustained backlog.
func TestWFQWeightedShare(t *testing.T) {
	svc, sched := deferredService(t, PolicyWFQ, 1, 0)
	a := newTierDevice(t, svc, "a", 1, DeviceOptions{Weight: 2})
	b := newTierDevice(t, svc, "b", 2, DeviceOptions{})
	frames := serviceFrames(t, 4)
	perBatch := float64(len(frames)) * DefaultLabelerConfig().TeacherLatencySec

	for i := 0; i < 20; i++ {
		a.Enqueue(frames, 0, func(BatchResult) {})
		b.Enqueue(frames, 0, func(BatchResult) {})
	}
	sched.AdvanceTo(12 * perBatch)

	ratio := a.Stats().BusySeconds / b.Stats().BusySeconds
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("weight-2 device should get ~2x the teacher share, got ratio %.2f (a=%.3fs b=%.3fs)",
			ratio, a.Stats().BusySeconds, b.Stats().BusySeconds)
	}
}

// TestPhiPriorityReordersCongestedQueue: with two batches waiting behind a
// busy teacher, the device with the higher last observed φ (more drift) is
// served first even though it arrived later.
func TestPhiPriorityReordersCongestedQueue(t *testing.T) {
	svc, sched := deferredService(t, PolicyPhiPriority, 1, 0)
	calm := newTierDevice(t, svc, "calm", 1, DeviceOptions{})
	drift := newTierDevice(t, svc, "drift", 2, DeviceOptions{})

	// Prime each device's φ signal: tightly-spaced frames change little
	// between labels (low φ); widely-spaced frames change a lot (high φ).
	var calmPhi, driftPhi float64
	calm.Enqueue(framesAtStride(t, 1, 8, 15), 0, func(r BatchResult) { calmPhi = r.PhiMean })
	sched.AdvanceTo(10)
	drift.Enqueue(framesAtStride(t, 2, 8, 150), 20, func(r BatchResult) { driftPhi = r.PhiMean })
	sched.AdvanceTo(50)
	if driftPhi <= calmPhi {
		t.Fatalf("priming failed: drift φ %.3f must exceed calm φ %.3f", driftPhi, calmPhi)
	}

	// Congest: a filler batch occupies the teacher, then calm queues BEFORE
	// drift. φ-priority must still serve drift first.
	filler := framesAtStride(t, 3, 8, 15)
	calm.Enqueue(filler, 100, func(BatchResult) {})
	sched.AdvanceTo(100) // filler in service; teacher busy
	var calmStart, driftStart float64
	calm.Enqueue(framesAtStride(t, 4, 4, 15), 100.01, func(r BatchResult) { calmStart = r.Start })
	drift.Enqueue(framesAtStride(t, 5, 4, 150), 100.02, func(r BatchResult) { driftStart = r.Start })
	sched.AdvanceTo(200)

	if calmStart == 0 || driftStart == 0 {
		t.Fatal("queued batches never served")
	}
	if driftStart >= calmStart {
		t.Fatalf("φ-priority must label the drifting device first: drift start %.3f, calm start %.3f",
			driftStart, calmStart)
	}

	// Control: under FIFO the identical scenario serves in arrival order.
	fsvc := oneReplica(ServiceConfig{})
	fc := newTierDevice(t, fsvc, "calm", 1, DeviceOptions{})
	fd := newTierDevice(t, fsvc, "drift", 2, DeviceOptions{})
	label(fc, filler, 100)
	rc := label(fc, framesAtStride(t, 4, 4, 15), 100.01)
	rd := label(fd, framesAtStride(t, 5, 4, 150), 100.02)
	if rc.Start >= rd.Start {
		t.Fatalf("FIFO control should serve in arrival order: calm %.3f drift %.3f", rc.Start, rd.Start)
	}
}

// TestRegisteredPolicyNeedsNoEngineEdits: a policy registered from outside
// the stock set (here: serve the NEWEST batch first) drives the engine with
// zero engine changes — the registry contract.
func TestRegisteredPolicyNeedsNoEngineEdits(t *testing.T) {
	svc, sched := deferredService(t, "lifo-test", 1, 0)
	a := newTierDevice(t, svc, "a", 1, DeviceOptions{})
	b := newTierDevice(t, svc, "b", 2, DeviceOptions{})
	c := newTierDevice(t, svc, "c", 3, DeviceOptions{})
	frames := serviceFrames(t, 4)

	var order []string
	record := func(id string) func(BatchResult) {
		return func(BatchResult) { order = append(order, id) }
	}
	a.Enqueue(frames, 0, record("a")) // in service immediately
	sched.AdvanceTo(0)
	b.Enqueue(frames, 0.01, record("b"))
	c.Enqueue(frames, 0.02, record("c"))
	sched.AdvanceTo(10)

	if len(order) != 3 || order[0] != "a" || order[1] != "c" || order[2] != "b" {
		t.Fatalf("test-registered LIFO policy should serve newest first: %v", order)
	}
}

// lifoTestPolicy serves the newest batch first. It is registered for the
// whole test binary, so every table of policies can include it.
type lifoTestPolicy struct{}

func init() {
	MustRegisterPolicy("lifo-test", "newest batch first (test-only)", func() Policy { return lifoTestPolicy{} })
}

func (lifoTestPolicy) Immediate() bool { return false }
func (lifoTestPolicy) Next(eligible []Pending, now float64) int {
	best := 0
	for i := 1; i < len(eligible); i++ {
		if eligible[i].Seq > eligible[best].Seq {
			best = i
		}
	}
	return best
}

// TestPolicyNextIsAStrictTotalOrder holds every policy to the Policy
// contract the service's heap of device heads relies on: Next returns the
// least entry of one strict total order over the entries' own fields, so
// its pick does not move when the entries are shuffled or now changes, and
// a tournament of two-entry calls finds the same winner.
func TestPolicyNextIsAStrictTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 29))
	for _, name := range []string{PolicyFIFO, PolicyPhiPriority, PolicyWFQ, "lifo-test"} {
		p, err := NewPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		pick := func(eligible []Pending) Pending {
			i := p.Next(eligible, rng.Float64()*100)
			if i < 0 || i >= len(eligible) {
				t.Fatalf("%s: Next returned %d for %d entries", name, i, len(eligible))
			}
			return eligible[i]
		}
		for trial := 0; trial < 500; trial++ {
			// Keys come from small sets, so ties are common and the Seq
			// tie-break decides.
			eligible := make([]Pending, 1+rng.IntN(12))
			for i, seq := range rng.Perm(4 * len(eligible))[:len(eligible)] {
				eligible[i] = Pending{
					Device:    fmt.Sprintf("d%d", i),
					Arrival:   float64(seq) / 100,
					Seq:       seq + 1,
					Frames:    1 + rng.IntN(4),
					Phi:       float64(rng.IntN(4)) / 4,
					ServedSec: float64(rng.IntN(4)) / 2,
					Weight:    []float64{0, 0.5, 1, 2}[rng.IntN(4)],
				}
			}
			want := pick(eligible).Seq
			rng.Shuffle(len(eligible), func(i, j int) { eligible[i], eligible[j] = eligible[j], eligible[i] })
			if got := pick(eligible).Seq; got != want {
				t.Fatalf("%s trial %d: shuffling the entries moved the pick from seq %d to %d", name, trial, want, got)
			}
			champ := eligible[0]
			for _, e := range eligible[1:] {
				pair := []Pending{champ, e}
				if rng.IntN(2) == 0 {
					pair[0], pair[1] = e, champ
				}
				champ = pick(pair)
			}
			if champ.Seq != want {
				t.Fatalf("%s trial %d: the pairwise tournament picks seq %d, Next over all picks %d", name, trial, champ.Seq, want)
			}
		}
	}
}

// TestWorkerPoolParallelService: with two workers, two simultaneous batches
// both start immediately; the third queues behind the earliest horizon.
// Worker ties break on the lowest index, so the schedule is deterministic.
func TestWorkerPoolParallelService(t *testing.T) {
	svc := oneReplica(ServiceConfig{Workers: 2})
	if n := len(svc.replicas[0].workers); n != 2 {
		t.Fatalf("worker pool size %d, want 2", n)
	}
	a := newTierDevice(t, svc, "a", 1, DeviceOptions{})
	b := newTierDevice(t, svc, "b", 2, DeviceOptions{})
	c := newTierDevice(t, svc, "c", 3, DeviceOptions{})
	frames := serviceFrames(t, 5)
	lat := DefaultLabelerConfig().TeacherLatencySec

	ra := label(a, frames, 10)
	rb := label(b, frames, 10)
	if ra.QueueDelaySec != 0 || rb.QueueDelaySec != 0 {
		t.Fatalf("two workers must serve two simultaneous batches at once: %+v %+v", ra, rb)
	}
	rc := label(c, frames, 10)
	if want := 10 + 5*lat; math.Abs(rc.Start-want) > 1e-12 {
		t.Fatalf("third batch must queue behind the earliest horizon: start %v want %v", rc.Start, want)
	}
	if got := svc.Stats(); got.Batches != 3 {
		t.Fatalf("aggregate batches %d, want 3", got.Batches)
	}
}

// TestDeferredQueueCapDrops: the admission bound counts waiting batches on
// the deferred path too; Enqueue reports the drop and never calls back.
func TestDeferredQueueCapDrops(t *testing.T) {
	svc, sched := deferredService(t, PolicyWFQ, 1, 1)
	a := newTierDevice(t, svc, "a", 1, DeviceOptions{})
	b := newTierDevice(t, svc, "b", 2, DeviceOptions{})
	frames := serviceFrames(t, 4)

	if !a.Enqueue(frames, 0, func(BatchResult) {}) {
		t.Fatal("first batch must be admitted")
	}
	called := false
	if b.Enqueue(frames, 0, func(BatchResult) { called = true }) {
		t.Fatal("over-cap batch must be dropped")
	}
	sched.AdvanceTo(100)
	if called {
		t.Fatal("dropped batch must never deliver a callback")
	}
	if got := b.Stats().DroppedBatches; got != 1 {
		t.Fatalf("device b drops = %d, want 1", got)
	}
	if got := svc.Stats(); got.Batches != 1 || got.DroppedBatches != 1 {
		t.Fatalf("aggregate stats wrong: %+v", got)
	}
}

// TestUnknownPolicyPanicsAtConstruction: NewTier is post-validation; user
// input goes through ValidatePolicy first.
func TestUnknownPolicyPanicsAtConstruction(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTier with an unknown policy must panic")
		}
	}()
	NewTier(TierConfig{Service: ServiceConfig{Policy: "no-such-policy"}})
}

// TestControllerNonFiniteInputsNeutral: NaN/Inf telemetry must neither move
// the rate through garbage terms nor poison lastLambda for later updates.
func TestControllerNonFiniteInputsNeutral(t *testing.T) {
	cfg := DefaultControllerConfig()
	c := NewController(cfg)
	c.Update(cfg.PhiTarget, cfg.AlphaTarget+0.1, 0.5) // establish finite state
	base := c.Rate()

	for _, bad := range [][3]float64{
		{math.NaN(), cfg.AlphaTarget, 0.5},
		{cfg.PhiTarget, math.NaN(), 0.5},
		{cfg.PhiTarget, cfg.AlphaTarget, math.NaN()},
		{math.Inf(1), math.Inf(-1), math.Inf(1)},
		{math.NaN(), math.NaN(), math.NaN()},
	} {
		r := c.Update(bad[0], bad[1], bad[2])
		if math.IsNaN(r) || math.IsInf(r, 0) {
			t.Fatalf("non-finite inputs %v produced rate %v", bad, r)
		}
		if math.Abs(r-base) > 1e-9 {
			t.Fatalf("non-finite inputs %v moved the rate: %v -> %v", bad, base, r)
		}
	}

	// The controller must still respond normally afterwards — the bad
	// reports left no poison behind.
	r := c.Update(cfg.PhiTarget+0.3, cfg.AlphaTarget-0.3, 0.5)
	if math.IsNaN(r) || r <= base {
		t.Fatalf("controller did not recover after non-finite inputs: %v -> %v", base, r)
	}
}

// TestControllerFreshNonFiniteLambda: a NaN λ̄ on the very first report must
// not fabricate a λ̄=0 baseline — the first FINITE report must still be
// treated as the baseline (neutral R(λ)), exactly as on a fresh controller.
func TestControllerFreshNonFiniteLambda(t *testing.T) {
	cfg := DefaultControllerConfig()
	c := NewController(cfg)
	r1 := c.Update(cfg.PhiTarget, cfg.AlphaTarget+0.1, math.NaN())
	if math.IsNaN(r1) || math.IsInf(r1, 0) {
		t.Fatalf("first update with NaN λ̄ produced %v", r1)
	}
	r2 := c.Update(cfg.PhiTarget, cfg.AlphaTarget+0.1, 0.9)

	fresh := NewController(cfg)
	want := fresh.Update(cfg.PhiTarget, cfg.AlphaTarget+0.1, 0.9)
	if r2 != want {
		t.Fatalf("first finite λ̄ after a NaN start must act as the baseline: got %v, fresh controller gives %v", r2, want)
	}
}
