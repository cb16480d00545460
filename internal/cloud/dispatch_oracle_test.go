package cloud

import (
	"math"
	"math/rand/v2"
	"testing"

	"shoggoth/internal/detect"
	"shoggoth/internal/sim"
	"shoggoth/internal/video"
)

// scanDispatch is the deferred dispatch the service ran before it kept its
// devices in a heap: one arrival-ordered list of every waiting batch, which
// selectLocked scans on each pick and takeLocked shifts. It is kept as the
// reference the heap is held to. It drives a replica of its own through the
// parts both share (admission, worker assignment, pricing, labeling), so
// only the choice of the next batch differs; the devices of that replica
// never queue a batch, which leaves its heap empty.
type scanDispatch struct {
	tier  *Tier // one replica, s
	s     *service
	sched *sim.Scheduler

	pending     []*pendingBatch
	eligible    []Pending
	idx         []int
	selEpoch    uint64
	epochs      map[*serviceDevice]uint64 // the selection that last offered each device's head-of-line batch
	group       []*pendingBatch
	ready       []assigned
	phis        []float64 // labeling's φ scratch, as the service's phis
	dispatchSet bool
	dispatchAt  float64
}

func newScanDispatch(cfg ServiceConfig) *scanDispatch {
	tier := oneReplica(cfg)
	s := tier.replicas[0]
	if c := max(cfg.Coalesce, 1); cap(s.costs) < c {
		s.costs = make([]float64, c)
	}
	return &scanDispatch{tier: tier, s: s, sched: sim.NewScheduler(), epochs: map[*serviceDevice]uint64{}}
}

func (o *scanDispatch) enqueue(d *serviceDevice, frames []*video.Frame, now float64, cb func(BatchResult)) bool {
	s := o.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fullLocked(now) {
		d.acc.dropped++
		s.agg.dropped++
		return false
	}
	s.seq++
	s.waiting++ // what occupancy counts
	o.pending = append(o.pending, &pendingBatch{dev: d, n: len(frames), frames: frames, arrival: now, seq: s.seq, cb: cb})
	o.ensureDispatchLocked(now)
	return true
}

func (o *scanDispatch) ensureDispatchLocked(now float64) {
	if len(o.pending) == 0 {
		return
	}
	t := o.s.workers[o.s.freeWorkerLocked()]
	if t < now {
		t = now
	}
	if o.dispatchSet && o.dispatchAt <= t {
		return
	}
	o.dispatchSet = true
	o.dispatchAt = t
	o.sched.At(t, o.onDispatch)
}

func (o *scanDispatch) onDispatch(now float64) {
	s := o.s
	s.mu.Lock()
	o.ready = o.dispatchLocked(now, o.ready[:0])
	ready := o.ready
	s.mu.Unlock()
	for k := range ready {
		a := &ready[k]
		labels, phis, phiMean := a.b.dev.label(a.b.frames, &o.phis)
		a.b.cb(BatchResult{
			Labels:        labels,
			Phis:          phis,
			PhiMean:       phiMean,
			Start:         a.adm.Start,
			Done:          a.adm.Done,
			QueueDelaySec: a.adm.QueueDelaySec,
		})
		a.b = pendingBatch{}
	}
}

func (o *scanDispatch) dispatchLocked(now float64, ready []assigned) []assigned {
	s := o.s
	o.dispatchSet = false
	for len(o.pending) > 0 && s.workers[s.freeWorkerLocked()] <= now {
		if s.cfg.Coalesce >= 2 {
			ptrs := o.selectGroupLocked(now)
			group := make([]pendingBatch, len(ptrs))
			for k, b := range ptrs {
				group[k] = *b
			}
			s.waiting -= len(group)
			ready = s.assignGroupLocked(ready, group, now)
			continue
		}
		b := o.takeLocked(o.selectLocked(now))
		s.waiting--
		ready = append(ready, assigned{b: *b, adm: s.assignLocked(b.dev, len(b.frames), now, b.arrival, b.extra)})
	}
	o.ensureDispatchLocked(now)
	return ready
}

// takeLocked removes and returns pending[i], keeping arrival order.
func (o *scanDispatch) takeLocked(i int) *pendingBatch {
	b := o.pending[i]
	n := len(o.pending) - 1
	copy(o.pending[i:], o.pending[i+1:])
	o.pending[n] = nil
	o.pending = o.pending[:n]
	return b
}

// selectGroupLocked pulls up to Coalesce pending batches for one fused
// teacher forward, each chosen by the policy in turn. Selection stops early
// at an incompatible batch.
func (o *scanDispatch) selectGroupLocked(now float64) []*pendingBatch {
	s := o.s
	if cap(o.group) < s.cfg.Coalesce {
		o.group = make([]*pendingBatch, 0, s.cfg.Coalesce)
	}
	first := o.takeLocked(o.selectLocked(now))
	group := o.group[:1]
	group[0] = first
	lat := first.dev.labeler.Config.TeacherLatencySec
	for len(group) < s.cfg.Coalesce && len(o.pending) > 0 {
		j := o.selectLocked(now)
		if o.pending[j].dev.labeler.Config.TeacherLatencySec != lat {
			break
		}
		group = group[:len(group)+1]
		group[len(group)-1] = o.takeLocked(j)
	}
	return group
}

// selectLocked asks the policy for the next batch among each device's
// head-of-line batch and returns its index in pending. A policy returning
// an out-of-range index falls back to the head of the queue.
func (o *scanDispatch) selectLocked(now float64) int {
	if cap(o.eligible) < len(o.pending) {
		n := len(o.pending) + len(o.pending)/2
		o.eligible = make([]Pending, 0, n)
		o.idx = make([]int, 0, n)
	}
	eligible, idx := o.eligible[:0], o.idx[:0]
	o.selEpoch++
	for i, b := range o.pending { // pending is in arrival (seq) order
		d := b.dev
		if o.epochs[d] == o.selEpoch {
			continue
		}
		o.epochs[d] = o.selEpoch
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
	choice := o.s.policy.Next(eligible, now)
	if choice < 0 || choice >= len(idx) {
		choice = 0
	}
	return idx[choice]
}

// delivery is one delivered batch as a test log records it.
type delivery struct {
	dev                     string
	start, done, delay, phi float64
	phis, labels            int
}

func (a delivery) equal(b delivery) bool {
	bits := math.Float64bits
	return a.dev == b.dev && a.phis == b.phis && a.labels == b.labels &&
		bits(a.start) == bits(b.start) && bits(a.done) == bits(b.done) &&
		bits(a.delay) == bits(b.delay) && bits(a.phi) == bits(b.phi)
}

// checkHeads fails unless the replica's heap holds exactly those of its
// devices devs that have a waiting batch, each once at its recorded index,
// in the policy's order, and waiting counts their batches.
func checkHeads(t *testing.T, s *service, devs []*serviceDevice) {
	t.Helper()
	inHeap, waiting := 0, 0
	for _, d := range devs {
		id := d.id
		q := len(d.queue) - d.qHead
		waiting += q
		switch {
		case q == 0 && d.heapIdx != -1:
			t.Fatalf("device %s waits for nothing but sits at heap index %d", id, d.heapIdx)
		case q == 0:
		case d.heapIdx < 0 || d.heapIdx >= len(s.heads) || s.heads[d.heapIdx] != d:
			t.Fatalf("device %s has %d waiting batches but is not at its heap index %d", id, q, d.heapIdx)
		default:
			inHeap++
		}
	}
	if inHeap != len(s.heads) || waiting != s.waiting {
		t.Fatalf("heap holds %d devices for %d waiting devices; %d batches wait, the counter says %d", len(s.heads), inHeap, waiting, s.waiting)
	}
	for j := 1; j < len(s.heads); j++ {
		if s.beforeLocked(s.heads[j], s.heads[(j-1)/2]) {
			t.Fatalf("heap out of order at index %d: a key moved without a re-key", j)
		}
	}
}

// TestHeapPicksMatchScanOracle drives the replica and the scan it replaced
// with the same seeded sequences of enqueues and dispatch events, over the
// reordering policies with and without coalescing. Devices register with
// seeded weights, batches carry different frames, so labeling moves each
// device's φ, and some devices run a slower teacher, so coalesced groups
// stop early. Both must admit the
// same batches and serve them in the same order with bit-equal results;
// after every event the heap must hold exactly the waiting devices, in
// order.
func TestHeapPicksMatchScanOracle(t *testing.T) {
	pool := serviceFrames(t, 12)
	slow := DefaultLabelerConfig()
	slow.TeacherLatencySec *= 2
	for _, policy := range []string{PolicyPhiPriority, PolicyWFQ, "lifo-test"} {
		for _, coalesce := range []int{0, 2, 4} {
			rng := rand.New(rand.NewPCG(31, uint64(coalesce)))
			reordered, fused := false, 0
			for trial := 0; trial < 12; trial++ {
				cfg := ServiceConfig{Policy: policy, Coalesce: coalesce, Workers: 1 + trial%3, QueueCap: []int{0, 8}[trial/3%2]}
				tier := oneReplica(cfg)
				svc := tier.replicas[0]
				sched := sim.NewScheduler()
				tier.Bind(sched)
				ref := newScanDispatch(cfg)
				var devs, refDevs []*serviceDevice
				for i := 0; i < 6; i++ {
					lc := DefaultLabelerConfig()
					if i%3 == 2 {
						lc = slow
					}
					id := string(rune('a' + i))
					opts := DeviceOptions{Analytic: true, Weight: []float64{0, 0.5, 1, 2, 3}[rng.IntN(5)]}
					for _, side := range []struct {
						tier *Tier
						devs *[]*serviceDevice
					}{{tier, &devs}, {ref.tier, &refDevs}} {
						teacher := detect.NewTeacher(video.DETRACProfile(), rand.New(rand.NewPCG(uint64(i+1), 2)))
						td, err := side.tier.RegisterDevice(id, teacher, lc, nil, opts)
						if err != nil {
							t.Fatal(err)
						}
						*side.devs = append(*side.devs, onReplica(td.(*tierDevice)))
					}
				}
				var got, want []delivery
				var lastSeq []int
				record := func(log *[]delivery, id string, seq int) func(BatchResult) {
					return func(r BatchResult) {
						*log = append(*log, delivery{id, r.Start, r.Done, r.QueueDelaySec, r.PhiMean, len(r.Phis), len(r.Labels)})
						if log == &got {
							if len(lastSeq) > 0 && seq < lastSeq[len(lastSeq)-1] {
								reordered = true
							}
							lastSeq = append(lastSeq, seq)
						}
					}
				}
				admitted := 0
				compare := func(op int) {
					t.Helper()
					if len(got) != len(want) {
						t.Fatalf("%s coalesce=%d trial %d op %d: heap served %d batches, scan %d", policy, coalesce, trial, op, len(got), len(want))
					}
					for k := range got {
						if !got[k].equal(want[k]) {
							t.Fatalf("%s coalesce=%d trial %d op %d: batch %d served as %+v, scan %+v", policy, coalesce, trial, op, k, got[k], want[k])
						}
					}
					checkHeads(t, svc, devs)
				}
				for op := 0; op < 300; op++ {
					now := sched.Now()
					k := rng.IntN(len(devs))
					switch r := rng.IntN(7); {
					case r < 5:
						lo := rng.IntN(len(pool))
						frames := pool[lo : lo+1+rng.IntN(min(4, len(pool)-lo))]
						admitted++
						ok := devs[k].enqueue(frames, now, 0, record(&got, devs[k].id, admitted))
						if refOK := ref.enqueue(refDevs[k], frames, now, record(&want, refDevs[k].id, admitted)); ok != refOK {
							t.Fatalf("%s coalesce=%d trial %d op %d: heap admitted=%v, scan %v", policy, coalesce, trial, op, ok, refOK)
						}
						if !ok {
							admitted--
						}
					default:
						t1 := now + rng.Float64()*0.1
						sched.AdvanceTo(t1)
						ref.sched.AdvanceTo(t1)
					}
					compare(op)
				}
				sched.AdvanceTo(math.Inf(1))
				ref.sched.AdvanceTo(math.Inf(1))
				compare(-1)
				if len(got) == 0 || svc.waiting != 0 {
					t.Fatalf("%s coalesce=%d trial %d: %d batches served, %d left waiting", policy, coalesce, trial, len(got), svc.waiting)
				}
				ga, wa := svc.aggCopy(), ref.s.aggCopy()
				if gs, ws := ga.snapshot(), wa.snapshot(); gs != ws {
					t.Fatalf("%s coalesce=%d trial %d: stats %+v, scan %+v", policy, coalesce, trial, gs, ws)
				}
				gf, gb := svc.coalesceCounts()
				wf, wb := ref.s.coalesceCounts()
				if gf != wf || gb != wb {
					t.Fatalf("%s coalesce=%d trial %d: %d fused forwards of %d batches, scan %d of %d", policy, coalesce, trial, gf, gb, wf, wb)
				}
				fused += gf
			}
			if !reordered {
				t.Errorf("%s coalesce=%d: every batch served in arrival order: the policy never reordered", policy, coalesce)
			}
			if coalesce >= 2 && fused == 0 {
				t.Errorf("%s coalesce=%d: no group was ever fused", policy, coalesce)
			}
		}
	}
}
