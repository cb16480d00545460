package cloud

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"shoggoth/internal/detect"
	"shoggoth/internal/sim"
	"shoggoth/internal/video"
)

// loadReadingRoundRobin is round-robin without the LoadBlind declaration:
// the same Pick, so a tier built on it routes every batch identically, but
// the tier takes a load snapshot of every replica on every batch. It keeps
// the snapshot path as the reference the load-blind path is held to.
type loadReadingRoundRobin struct{ rr roundRobinRouter }

func (r *loadReadingRoundRobin) Pick(replicas []ReplicaState, info RouteInfo, now float64) int {
	return r.rr.Pick(replicas, info, now)
}

func init() {
	MustRegisterRouter("round-robin-reads-loads-test",
		"test-only: round-robin's picks through the load-snapshot path",
		func() Router { return &loadReadingRoundRobin{} })
}

// TestLoadBlindRoutingMatchesSnapshotRouting: skipping the load snapshots
// for a LoadBlind router is bit-neutral. An 8-replica tier with a bounded
// queue and a cold-start surcharge takes the same seeded batch sequence
// through round-robin and through the load-reading reference, under the
// eager FIFO path and the deferred wfq path with coalescing. Every batch
// must be admitted or dropped alike with byte-equal results, and the tier
// statistics must match. After each admission, the replica that took the
// batch must hold the same occupancy clock and the same outstanding
// completions in both tiers: the snapshots the reference took in between
// only drained early what that admission drains anyway.
func TestLoadBlindRoutingMatchesSnapshotRouting(t *testing.T) {
	for _, svc := range []ServiceConfig{
		{QueueCap: 3, Workers: 2},
		{QueueCap: 4, Workers: 2, Policy: PolicyWFQ, Coalesce: 3},
	} {
		t.Run(svc.resolved().Policy, func(t *testing.T) {
			blind := newRefTier(t, RouterRoundRobin, svc)
			ref := newRefTier(t, "round-robin-reads-loads-test", svc)
			if blind.tier.loads || !ref.tier.loads {
				t.Fatalf("loads: round-robin %v, reference %v; want false, true", blind.tier.loads, ref.tier.loads)
			}
			p := video.DETRACProfile()
			stream := video.NewSparseStream(p, 1)
			rng := rand.New(rand.NewPCG(11, 12))
			now := 0.0
			admitted, dropped := 0, 0
			for k := 0; k < 3000; k++ {
				now += rng.ExpFloat64() * 0.006
				blind.sched.AdvanceTo(now)
				ref.sched.AdvanceTo(now)
				dev := rng.IntN(len(blind.devs))
				frames := make([]*video.Frame, 1+rng.IntN(4))
				for i := range frames {
					ft := now - float64(len(frames)-i)*0.5
					frames[i] = stream.Meta(int(ft*p.FPS), ft)
				}
				okB := blind.enqueue(dev, frames, now)
				okR := ref.enqueue(dev, frames, now)
				if okB != okR {
					t.Fatalf("batch %d: admitted %v through round-robin, %v through the reference", k, okB, okR)
				}
				if !okB {
					dropped++
					continue
				}
				admitted++
				ri := blind.tier.router.(*roundRobinRouter).next - 1
				sb, sr := blind.tier.replicas[ri], ref.tier.replicas[ri]
				if sb.occNow != sr.occNow || !slices.Equal(sb.outstanding, sr.outstanding) {
					t.Fatalf("batch %d on replica %d: occupancy clock %v with %d outstanding, reference %v with %d",
						k, ri, sb.occNow, len(sb.outstanding), sr.occNow, len(sr.outstanding))
				}
			}
			blind.sched.AdvanceTo(now + 1e6)
			ref.sched.AdvanceTo(now + 1e6)
			t.Logf("%d admitted, %d dropped", admitted, dropped)
			if admitted == 0 || dropped == 0 {
				t.Fatalf("%d admitted, %d dropped: the run must exercise both", admitted, dropped)
			}
			if !reflect.DeepEqual(blind.results, ref.results) {
				t.Fatal("per-device batch results differ between round-robin and the reference")
			}
			for i := range blind.devs {
				if a, b := blind.devs[i].Stats(), ref.devs[i].Stats(); a != b {
					t.Fatalf("device %d stats: %+v vs %+v", i, a, b)
				}
			}
			bs, rs := blind.tier.TierStats(), ref.tier.TierStats()
			rs.Router = bs.Router
			if !reflect.DeepEqual(bs, rs) {
				t.Fatalf("tier stats differ:\n%+v\n%+v", bs, rs)
			}
		})
	}
}

// refTier is one side of the load-blind comparison: a tier, its scheduler
// and the results each device's batches came back with.
type refTier struct {
	tier    *Tier
	sched   *sim.Scheduler
	devs    []Device
	results [][]BatchResult
}

func newRefTier(t *testing.T, router string, svc ServiceConfig) *refTier {
	t.Helper()
	r := &refTier{
		tier:  NewTier(TierConfig{Replicas: 8, Router: router, Service: svc, ColdStartSec: 0.2}),
		sched: sim.NewScheduler(),
	}
	r.tier.Bind(r.sched)
	p := video.DETRACProfile()
	for i := 0; i < 24; i++ {
		teacher := detect.NewTeacher(p, rand.New(rand.NewPCG(uint64(i), 2)))
		d, err := r.tier.RegisterDevice(string(rune('a'+i)), teacher, DefaultLabelerConfig(), nil,
			DeviceOptions{Analytic: true, Weight: float64(1 + i%3)})
		if err != nil {
			t.Fatal(err)
		}
		r.devs = append(r.devs, d)
	}
	r.results = make([][]BatchResult, len(r.devs))
	return r
}

func (r *refTier) enqueue(dev int, frames []*video.Frame, now float64) bool {
	return r.devs[dev].Enqueue(frames, now, func(res BatchResult) {
		r.results[dev] = append(r.results[dev], res)
	})
}
