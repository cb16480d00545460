package cloud

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"shoggoth/internal/detect"
	"shoggoth/internal/sim"
	"shoggoth/internal/video"
)

func newTierDevice(t testing.TB, tier *Tier, id string, seed uint64, opts DeviceOptions) *TierDevice {
	t.Helper()
	p := video.DETRACProfile()
	teacher := detect.NewTeacher(p, rand.New(rand.NewPCG(seed, 2)))
	d, err := tier.Register(id, teacher, DefaultLabelerConfig(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// pinRouter is the test-registered router proving the registry extension
// contract: a router added via RegisterRouter — from a test, with zero tier
// edits — drives a tier exactly like a stock one. It pins device "c" to the
// last replica and everything else to replica 0, and allocates nothing (the
// Router contract: Pick runs on the dispatch hot path).
type pinRouter struct{}

func (pinRouter) Pick(replicas []ReplicaState, r RouteInfo, _ float64) int {
	if r.Device == "c" {
		return replicas[len(replicas)-1].Index
	}
	return replicas[0].Index
}

func init() {
	MustRegisterRouter("pin-by-device",
		"test-only: pin device c to the last replica, everything else to replica 0",
		func() Router { return pinRouter{} })
}

// TestServiceRetryAfterSecPoolDrain: the 429 Retry-After estimate must
// account for the whole worker pool's drain rate, not a serial replay. With
// a 2-frame batch ahead of a 1-frame batch still unassigned, one worker
// frees a slot when the head batch completes (2·lat), but two workers drain
// the batches in parallel, so the 1-frame batch completes first (1·lat).
func TestServiceRetryAfterSecPoolDrain(t *testing.T) {
	lat := DefaultLabelerConfig().TeacherLatencySec
	for _, tc := range []struct {
		workers int
		want    float64
	}{
		{1, 2 * lat}, // serial: the 2-frame head batch frees the first slot
		{2, lat},     // pool: the 1-frame batch drains on the second worker
	} {
		// A reordering policy keeps the batches pending (unassigned), which
		// is exactly the state the pool-drain replay estimates. The scheduler
		// is bound but never advanced: nothing dispatches.
		svc := oneReplica(ServiceConfig{Policy: PolicyWFQ, Workers: tc.workers})
		svc.Bind(sim.NewScheduler())
		a := newTierDevice(t, svc, "a", 1, DeviceOptions{})
		b := newTierDevice(t, svc, "b", 2, DeviceOptions{})
		if !a.Enqueue(serviceFrames(t, 2), 0, func(BatchResult) {}) {
			t.Fatal("enqueue a")
		}
		if !b.Enqueue(serviceFrames(t, 1), 0, func(BatchResult) {}) {
			t.Fatal("enqueue b")
		}
		if got := svc.RetryAfterSec(0); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("workers=%d: RetryAfterSec = %v, want %v", tc.workers, got, tc.want)
		}
	}
	if got := oneReplica(ServiceConfig{}).RetryAfterSec(5); got != 0 {
		t.Fatalf("idle service RetryAfterSec = %v, want 0", got)
	}
}

// TestTierOneReplicaPassThrough locks the contract that keeps the golden
// file frozen: a 1-replica tier under the default router, no admission
// control and no cold-start penalty produces bit-identical results and
// statistics to its replica, driven directly, for the same batch sequence.
func TestTierOneReplicaPassThrough(t *testing.T) {
	sd := onReplica(newTierDevice(t, oneReplica(ServiceConfig{QueueCap: 1}), "a", 1, DeviceOptions{}))
	svc := sd.svc
	tier := NewTier(TierConfig{Service: ServiceConfig{QueueCap: 1}})
	td := newTierDevice(t, tier, "a", 1, DeviceOptions{})

	frames := serviceFrames(t, 5)
	// Includes a mid-service arrival that both sides must drop at QueueCap 1.
	for _, now := range []float64{0, 0.01, 10, 10.2} {
		want := BatchResult{Dropped: true}
		sd.enqueue(frames, now, 0, func(r BatchResult) { want = r })
		var got BatchResult
		ok := td.Enqueue(frames, now, func(r BatchResult) { got = r })
		if ok == want.Dropped {
			t.Fatalf("t=%v: tier admitted=%v, service dropped=%v", now, ok, want.Dropped)
		}
		if want.Dropped {
			continue
		}
		if got.Start != want.Start || got.Done != want.Done || got.QueueDelaySec != want.QueueDelaySec {
			t.Fatalf("t=%v: scheduling diverged: got %+v want %+v", now, got, want)
		}
		if got.PhiMean != want.PhiMean || len(got.Phis) != len(want.Phis) {
			t.Fatalf("t=%v: φ diverged: got %v want %v", now, got.PhiMean, want.PhiMean)
		}
		for i := range got.Phis {
			if got.Phis[i] != want.Phis[i] {
				t.Fatalf("t=%v frame %d: φ %v != %v", now, i, got.Phis[i], want.Phis[i])
			}
		}
	}
	agg, dev := svc.aggCopy(), sd.accCopy()
	if want := agg.snapshot(); tier.Stats() != want {
		t.Fatalf("tier aggregate diverged: %+v vs %+v", tier.Stats(), want)
	}
	if want := dev.snapshot(); td.Stats() != want {
		t.Fatalf("tier device stats diverged: %+v vs %+v", td.Stats(), want)
	}
	ts := tier.TierStats()
	if want := agg.snapshot(); ts.QueueStats != want || len(ts.Replicas) != 1 || ts.Replicas[0] != want {
		t.Fatalf("TierStats merge not exact: %+v", ts)
	}
	if ts.Router != RouterRoundRobin {
		t.Fatalf("default router = %q, want %q", ts.Router, RouterRoundRobin)
	}
}

// TestTierTokenBucketAdmission: the bucket starts full (burst), rejects
// once dry — counted per class and tier-wide, callback never runs — and
// RetryAfterSec reports the next token accrual when admission control is
// the binding constraint.
func TestTierTokenBucketAdmission(t *testing.T) {
	tier := NewTier(TierConfig{AdmitRatePerSec: 2, AdmitBurst: 1})
	a := newTierDevice(t, tier, "a", 1, DeviceOptions{SLOClass: "premium"})
	frames := serviceFrames(t, 2)

	if !a.Enqueue(frames, 0, func(BatchResult) {}) {
		t.Fatal("burst token must admit the first batch")
	}
	// At t=0.1 the bucket holds 0.2 tokens: rejected, and cb must not run.
	ran := false
	if a.Enqueue(frames, 0.1, func(BatchResult) { ran = true }) || ran {
		t.Fatal("dry bucket must reject without invoking the callback")
	}
	if !tier.AtCapacity(0.1) {
		t.Fatal("AtCapacity must report the dry bucket")
	}
	// Replica is idle (first batch done at 0.09), so the bucket binds:
	// (1-0.2)/2 = 0.4s until the next token.
	if got := tier.RetryAfterSec(0.1); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("RetryAfterSec = %v, want 0.4", got)
	}
	// After the token accrues the tier admits again.
	if !a.Enqueue(frames, 0.6, func(BatchResult) {}) {
		t.Fatal("refilled bucket must admit")
	}

	st := tier.TierStats()
	if st.AdmissionRejected != 1 || st.DroppedBatches != 1 || st.Batches != 2 {
		t.Fatalf("rejection accounting wrong: %+v", st)
	}
	cs, ok := st.SLOClasses["premium"]
	if !ok || cs.Batches != 2 || cs.Dropped != 1 {
		t.Fatalf("class accounting wrong: %+v", st.SLOClasses)
	}
	if want := 1.0 / 3; math.Abs(cs.DropRate-want) > 1e-12 {
		t.Fatalf("drop rate = %v, want %v", cs.DropRate, want)
	}
	if cs.LabelLatencyP50Sec <= 0 || cs.LabelLatencyP99Sec < cs.LabelLatencyP50Sec {
		t.Fatalf("label latency quantiles wrong: %+v", cs)
	}
	if as := a.Stats(); as.DroppedBatches != 1 {
		t.Fatalf("device stats must include bucket rejections: %+v", as)
	}
}

// TestTierColdStartPricedOncePerDomain: with ColdStartSec set, the first
// batch of a domain on a replica pays the warmup surcharge and later
// batches of the same domain do not.
func TestTierColdStartPricedOncePerDomain(t *testing.T) {
	lat := DefaultLabelerConfig().TeacherLatencySec
	tier := NewTier(TierConfig{ColdStartSec: 0.5})
	a := newTierDevice(t, tier, "a", 1, DeviceOptions{})
	frames := serviceFrames(t, 2)

	var r1, r2 BatchResult
	if !a.Enqueue(frames, 0, func(r BatchResult) { r1 = r }) {
		t.Fatal("enqueue 1")
	}
	if !a.Enqueue(frames, 10, func(r BatchResult) { r2 = r }) {
		t.Fatal("enqueue 2")
	}
	if want := 2*lat + 0.5; math.Abs((r1.Done-r1.Start)-want) > 1e-12 {
		t.Fatalf("cold batch service = %v, want %v", r1.Done-r1.Start, want)
	}
	if want := 2 * lat; math.Abs((r2.Done-r2.Start)-want) > 1e-12 {
		t.Fatalf("warm batch service = %v, want %v", r2.Done-r2.Start, want)
	}
}

// TestTierCoalescingAmortisesTeacherTime: four same-instant batches fused
// into one teacher forward must at least double the teacher's batch
// throughput versus serving them solo — the riders pay only the marginal
// per-frame cost.
func TestTierCoalescingAmortisesTeacherTime(t *testing.T) {
	lat := DefaultLabelerConfig().TeacherLatencySec
	run := func(coalesce int) TierStats {
		sched := sim.NewScheduler()
		tier := NewTier(TierConfig{Service: ServiceConfig{Coalesce: coalesce}})
		tier.Bind(sched)
		for i := 0; i < 4; i++ {
			d := newTierDevice(t, tier, fmt.Sprintf("d%d", i), uint64(i+1), DeviceOptions{})
			if !d.Enqueue(serviceFrames(t, 4), float64(i)*1e-4, func(BatchResult) {}) {
				t.Fatal("enqueue")
			}
		}
		sched.AdvanceTo(100)
		return tier.TierStats()
	}

	solo := run(0)
	fused := run(4)
	if solo.Batches != 4 || fused.Batches != 4 {
		t.Fatalf("both runs must serve all 4 batches: solo %d, fused %d", solo.Batches, fused.Batches)
	}
	if want := 16 * lat; math.Abs(solo.BusySeconds-want) > 1e-9 {
		t.Fatalf("solo busy = %v, want %v", solo.BusySeconds, want)
	}
	if fused.CoalescedForwards != 1 || fused.CoalescedBatches != 4 {
		t.Fatalf("want one 4-batch fused forward, got %d forwards / %d batches",
			fused.CoalescedForwards, fused.CoalescedBatches)
	}
	if solo.CoalescedForwards != 0 {
		t.Fatalf("coalescing disabled must not fuse: %d forwards", solo.CoalescedForwards)
	}
	speedup := (float64(fused.Batches) / fused.BusySeconds) / (float64(solo.Batches) / solo.BusySeconds)
	if speedup < 2 {
		t.Fatalf("batched teacher throughput %.2fx unbatched, want >= 2x", speedup)
	}
}

// TestTierWFQFairShareAcrossReplicas drives the tier with the
// test-registered pinning router: devices a (weight 3) and b (weight 1)
// contend on replica 0 under WFQ, device c has replica 1 to itself. The
// served teacher time on the contended replica must split ~3:1, and the
// per-replica statistics must show the pinning.
func TestTierWFQFairShareAcrossReplicas(t *testing.T) {
	sched := sim.NewScheduler()
	tier := NewTier(TierConfig{
		Replicas: 2,
		Router:   "pin-by-device",
		Service:  ServiceConfig{Policy: PolicyWFQ},
	})
	tier.Bind(sched)
	a := newTierDevice(t, tier, "a", 1, DeviceOptions{Weight: 3})
	b := newTierDevice(t, tier, "b", 2, DeviceOptions{})
	c := newTierDevice(t, tier, "c", 3, DeviceOptions{})

	frames := serviceFrames(t, 2)
	for i := 0; i < 40; i++ {
		if !a.Enqueue(frames, 0, func(BatchResult) {}) {
			t.Fatal("enqueue a")
		}
		if !b.Enqueue(frames, 0, func(BatchResult) {}) {
			t.Fatal("enqueue b")
		}
	}
	if !c.Enqueue(frames, 0, func(BatchResult) {}) {
		t.Fatal("enqueue c")
	}
	// Advance through roughly half the offered work so the fair split is
	// observable (once everything drains, both devices are fully served).
	sched.AdvanceTo(3.0)

	as, bs := a.Stats(), b.Stats()
	if as.BusySeconds == 0 || bs.BusySeconds == 0 {
		t.Fatalf("both contenders must be served: a=%v b=%v", as.BusySeconds, bs.BusySeconds)
	}
	ratio := as.BusySeconds / bs.BusySeconds
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("weight-3:1 served ratio = %.2f, want ~3 (in [2.5, 3.5])", ratio)
	}
	st := tier.TierStats()
	if st.Router != "pin-by-device" {
		t.Fatalf("router = %q", st.Router)
	}
	if st.Replicas[1].Batches != 1 {
		t.Fatalf("replica 1 must serve only device c: %+v", st.Replicas[1])
	}
	if got := st.Replicas[0].Batches + st.Replicas[1].Batches; got != st.Batches {
		t.Fatalf("replica batches %d do not sum to aggregate %d", got, st.Batches)
	}
	if st.JainFairness <= 0 || st.JainFairness > 1 {
		t.Fatalf("Jain index out of range: %v", st.JainFairness)
	}
}

func TestTierDuplicateRegistrationRejected(t *testing.T) {
	tier := NewTier(TierConfig{Replicas: 2})
	newTierDevice(t, tier, "cam", 1, DeviceOptions{})
	p := video.DETRACProfile()
	teacher := detect.NewTeacher(p, rand.New(rand.NewPCG(9, 2)))
	if _, err := tier.Register("cam", teacher, DefaultLabelerConfig(), nil, DeviceOptions{}); err == nil {
		t.Fatal("duplicate device id must be rejected")
	}
	if tier.Devices() != 1 {
		t.Fatalf("registry size %d, want 1", tier.Devices())
	}
}

// TestReplicaCountsRoutedRegistrations holds the registrations the tier
// mints on each replica lazily: none before a batch is routed there, one
// per device after, however many batches follow.
func TestReplicaCountsRoutedRegistrations(t *testing.T) {
	tier := NewTier(TierConfig{Replicas: 2, Router: "round-robin"})
	a := newTierDevice(t, tier, "a", 1, DeviceOptions{})
	b := newTierDevice(t, tier, "b", 2, DeviceOptions{})
	count := func() (n [2]int) {
		for _, d := range []*TierDevice{a, b} {
			for i, reg := range d.regs {
				if reg != nil {
					if reg.svc != tier.replicas[i] || reg.routed != d {
						t.Fatalf("device %s's registration %d belongs elsewhere", d.id, i)
					}
					n[i]++
				}
			}
		}
		return n
	}
	if got := count(); got != [2]int{0, 0} {
		t.Fatalf("replica registrations before any batch: %v, want [0 0]", got)
	}
	for i, d := range []*TierDevice{a, a, b, b, a} {
		if !d.Enqueue(serviceFrames(t, 1), float64(i), func(BatchResult) {}) {
			t.Fatalf("batch %d rejected", i)
		}
	}
	// Round-robin sends a to 0, 1 and 0 again, and b to 1 and 0.
	if got := count(); got != [2]int{2, 2} {
		t.Fatalf("replica registrations: %v, want [2 2]", got)
	}
}

func TestRoundRobinCycles(t *testing.T) {
	r, err := NewRouter("round-robin")
	if err != nil {
		t.Fatal(err)
	}
	reps := []ReplicaState{{Index: 0}, {Index: 1}, {Index: 2}}
	for i, want := range []int{0, 1, 2, 0, 1} {
		if got := r.Pick(reps, RouteInfo{}, 0); got != want {
			t.Fatalf("pick %d: got %d, want %d", i, got, want)
		}
	}
	solo, _ := NewRouter("")
	if got := solo.Pick(reps[:1], RouteInfo{}, 0); got != 0 {
		t.Fatalf("single replica must always pick 0, got %d", got)
	}
}

func TestLeastLoadedPicksSoonestFree(t *testing.T) {
	r, err := NewRouter("least-loaded")
	if err != nil {
		t.Fatal(err)
	}
	reps := []ReplicaState{
		{Index: 0, FreeInSec: 0.5, QueueLen: 1},
		{Index: 1, FreeInSec: 0.1, QueueLen: 3},
		{Index: 2, FreeInSec: 0.5, QueueLen: 0},
	}
	if got := r.Pick(reps, RouteInfo{}, 0); got != 1 {
		t.Fatalf("soonest-free must win, got %d", got)
	}
	// Equal horizons: fewer queued batches breaks the tie.
	reps[1].FreeInSec = 0.5
	if got := r.Pick(reps, RouteInfo{}, 0); got != 2 {
		t.Fatalf("queue-length tie-break failed, got %d", got)
	}
	// Full ties break on the lowest index — the determinism contract.
	for i := range reps {
		reps[i] = ReplicaState{Index: i}
	}
	if got := r.Pick(reps, RouteInfo{}, 0); got != 0 {
		t.Fatalf("full tie must pick the lowest index, got %d", got)
	}
}

func TestDomainAffinityPrefersWarmth(t *testing.T) {
	r, err := NewRouter("domain-affinity")
	if err != nil {
		t.Fatal(err)
	}
	reps := []ReplicaState{
		{Index: 0, FreeInSec: 0},
		{Index: 1, FreeInSec: 0.9, Warmth: 4},
		{Index: 2, FreeInSec: 0, Warmth: 1},
	}
	// The warmest replica wins even when others are idle.
	if got := r.Pick(reps, RouteInfo{Domain: 2}, 0); got != 1 {
		t.Fatalf("warmth must win, got %d", got)
	}
	// Unknown domain (or a cold tier) falls back to least-loaded.
	if got := r.Pick(reps, RouteInfo{Domain: -1}, 0); got != 0 {
		t.Fatalf("unknown domain must fall back to least-loaded, got %d", got)
	}
	for i := range reps {
		reps[i].Warmth = 0
	}
	if got := r.Pick(reps, RouteInfo{Domain: 2}, 0); got != 0 {
		t.Fatalf("cold domain must fall back to least-loaded, got %d", got)
	}
}

func TestRouterRegistry(t *testing.T) {
	es := Routers()
	if len(es) < 3 || es[0].Name != RouterRoundRobin || es[1].Name != RouterLeastLoaded || es[2].Name != RouterDomainAffinity {
		t.Fatalf("stock routers must lead the registry in order: %v", es)
	}
	if err := ValidateRouter("ROUND-ROBIN"); err != nil {
		t.Fatalf("names must be case-insensitive: %v", err)
	}
	if err := ValidateRouter(""); err != nil {
		t.Fatalf("empty name is the default and always valid: %v", err)
	}
	err := ValidateRouter("no-such-router")
	if err == nil {
		t.Fatal("unknown router must be rejected")
	}
	if !strings.Contains(err.Error(), RouterRoundRobin) {
		t.Fatalf("error must list known routers: %v", err)
	}
	if es[2].Summary == "" {
		t.Fatal("stock routers must have summaries")
	}
}

// TestTierConfigValidate is the one table of bad tier descriptions: every
// front-end (core.Config, scenarios, Cluster, the live server) delegates
// here, so each keeps a single case of its own.
func TestTierConfigValidate(t *testing.T) {
	for _, ok := range []TierConfig{
		{},
		{Replicas: 3, Router: "Least-Loaded", Service: ServiceConfig{Policy: "wfq", Workers: 2, QueueCap: 4, Coalesce: 3}},
		{AdmitRatePerSec: 6, AdmitBurst: 8, ColdStartSec: 0.3},
	} {
		if err := ok.Validate(); err != nil {
			t.Fatalf("%+v rejected: %v", ok, err)
		}
	}
	for _, tc := range []struct {
		name string
		cfg  TierConfig
		want string // a substring the error must carry
	}{
		{"unknown router", TierConfig{Router: "warp"}, RouterRoundRobin},
		{"unknown policy", TierConfig{Service: ServiceConfig{Policy: "warp"}}, PolicyFIFO},
		{"negative replicas", TierConfig{Replicas: -1}, "replicas -1"},
		{"negative workers", TierConfig{Service: ServiceConfig{Workers: -3}}, "workers -3"},
		{"negative queue cap", TierConfig{Service: ServiceConfig{QueueCap: -5}}, "queue cap -5"},
		{"negative coalesce", TierConfig{Service: ServiceConfig{Coalesce: -2}}, "coalesce -2"},
		{"negative admit rate", TierConfig{AdmitRatePerSec: -1}, "admit rate -1"},
		{"negative admit burst", TierConfig{AdmitBurst: -1}, "admit burst -1"},
		{"negative cold start", TierConfig{ColdStartSec: -0.1}, "cold start -0.1"},
	} {
		err := tc.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestTierResolvedIsWhatRuns: Resolved names the defaults a zero tier runs
// with, and NewTier reports the same.
func TestTierResolvedIsWhatRuns(t *testing.T) {
	r := TierConfig{}.Resolved()
	want := TierConfig{Replicas: 1, Router: RouterRoundRobin, Service: ServiceConfig{Policy: PolicyFIFO, Workers: 1}}
	if r != want {
		t.Fatalf("zero tier resolves to %+v, want %+v", r, want)
	}
	tier := NewTier(TierConfig{})
	if tier.Replicas() != r.Replicas || tier.Router() != r.Router ||
		tier.replicas[0].cfg.Policy != r.Service.Policy || len(tier.replicas[0].workers) != r.Service.Workers {
		t.Fatalf("NewTier runs %d replicas, router %s, policy %s, %d workers; Resolved says %+v",
			tier.Replicas(), tier.Router(), tier.replicas[0].cfg.Policy, len(tier.replicas[0].workers), r)
	}
	set := TierConfig{Replicas: 2, Router: RouterLeastLoaded, Service: ServiceConfig{Policy: PolicyWFQ, Workers: 3}}
	if set.Resolved() != set {
		t.Fatalf("Resolved changed set knobs: %+v", set.Resolved())
	}
}
